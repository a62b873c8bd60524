package core

import (
	"maps"
	"math/rand"
	"testing"
)

// Property tests for join, the paper's branch-join rule that every control
// loop's update matrix merges arms with: it must be commutative and
// idempotent on the values the analysis actually produces (well-formed
// symvals: an identity value always has affinity 1 — it is the untouched
// start-of-iteration value of its base), so the order of a merge is not
// part of the answer.

var latticeVars = []string{"p", "q", "r"}

func randWellFormedSymval(r *rand.Rand) symval {
	switch r.Intn(3) {
	case 0:
		return unknownVal
	case 1:
		return symval{known: true, base: latticeVars[r.Intn(len(latticeVars))], aff: 1, ident: true}
	default:
		return symval{known: true, base: latticeVars[r.Intn(len(latticeVars))], aff: float64(r.Intn(101)) / 100}
	}
}

func randEnv(r *rand.Rand) env {
	e := env{}
	for _, v := range latticeVars {
		if r.Intn(4) > 0 { // occasionally leave a variable out entirely
			e[v] = randWellFormedSymval(r)
		}
	}
	return e
}

func TestEnvJoinCommutative(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a, b := randEnv(r), randEnv(r)
		ab, ba := join(a, b), join(b, a)
		if !maps.Equal(ab, ba) {
			t.Fatalf("join not commutative:\n a = %#v\n b = %#v\n ab = %#v\n ba = %#v", a, b, ab, ba)
		}
	}
}

func TestEnvJoinIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		a := randEnv(r)
		if aa := join(a, a); !maps.Equal(aa, a) {
			t.Fatalf("join not idempotent:\n a = %#v\n aa = %#v", a, aa)
		}
	}
}

// A returning arm is the bottom of the branch merge: it never reaches the
// code after the if, so joinArms hands back the other arm's environment
// unchanged, whichever side it is on. Two returning arms return.
func TestEnvJoinBottomIsIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		a, dead := randEnv(r), randEnv(r)
		for _, swap := range []bool{false, true} {
			e1, t1, e2, t2 := a, false, dead, true
			if swap {
				e1, t1, e2, t2 = dead, true, a, false
			}
			out, term := joinArms(e1, t1, e2, t2)
			if term || !maps.Equal(out, a) {
				t.Fatalf("returning arm is not a merge identity (swap=%v):\n a = %#v\n dead = %#v\n out = %#v term = %v", swap, a, dead, out, term)
			}
		}
		if _, term := joinArms(a, true, dead, true); !term {
			t.Fatalf("two returning arms fell through")
		}
	}
}

// The one-sided omission rule, stated as a property: a variable updated
// in only one of two falling-through branches never survives the join as a
// known value (§4.2: only updates occurring on every iteration count).
func TestEnvJoinOmitsOneSided(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 2000; i++ {
		a, b := randEnv(r), randEnv(r)
		out := join(a, b)
		for v, val := range out {
			if !val.known {
				continue
			}
			va, aok := a[v]
			vb, bok := b[v]
			if !aok || !bok || !va.known || !vb.known {
				t.Fatalf("join invented a known value for %s: %#v (a=%#v b=%#v)", v, val, a, b)
			}
			if va.ident != vb.ident {
				t.Fatalf("one-sided update for %s survived the join: %#v", v, val)
			}
		}
	}
}
