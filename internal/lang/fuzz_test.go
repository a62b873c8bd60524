package lang

import (
	"reflect"
	"strings"
	"testing"
)

// fuzzSeeds are mini-C fragments exercising every token kind, both
// comment forms, and the declaration shapes the parser distinguishes.
var fuzzSeeds = []string{
	"",
	"int main() { return 0; }",
	"struct tree { int val; tree* left; tree* right; };",
	"tree* build(int n, int proc) {\n\tif (n == 0) return 0;\n\treturn alloc(proc);\n}",
	"int f(int x) { while (x > 0) { x = x - 1; } return x; }",
	"float g() { return 1.5 * 2.0 / 3.25; }",
	"int h(int a, int b) { return a && b || !a != b <= a >= b; }",
	"// line comment\nint i() { /* block */ return 42; }",
	"int bad( { ;;; }",
	"/* unterminated",
	"int tab() { return 1 % 2 - -3; }",
}

// FuzzLexAll checks the lexer never panics, terminates every accepted
// input with EOF, and yields tokens with sane kinds and positions.
func FuzzLexAll(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := lexAll(src)
		if err != nil {
			if toks != nil {
				t.Fatalf("error %v alongside non-nil tokens", err)
			}
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].kind != tokEOF {
			t.Fatalf("accepted token stream not EOF-terminated: %v", toks)
		}
		for i, tok := range toks {
			if tok.pos.Line < 1 || tok.pos.Col < 1 {
				t.Fatalf("token %d has impossible position %v", i, tok.pos)
			}
			switch tok.kind {
			case tokEOF:
				if i != len(toks)-1 {
					t.Fatalf("EOF token at %d of %d", i, len(toks))
				}
			case tokIdent, tokInt, tokFloat, tokPunct:
				if tok.text == "" {
					t.Fatalf("token %d of kind %d has empty text", i, tok.kind)
				}
			default:
				t.Fatalf("token %d has unknown kind %d", i, tok.kind)
			}
		}
	})
}

// FuzzParse checks the parser never panics, that accepted programs
// re-parse to the same shape (parse is a function of the token stream,
// so a second parse must agree with the first), and that Inspect walks
// every function it produced as a tree: it terminates, never hands its
// callback a nil, and visits no node twice.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// The lexer materializes the whole rune slice; bound the input so
		// the fuzzer explores syntax, not allocator throughput.
		if len(src) > 1<<16 {
			return
		}
		prog, err := Parse(src)
		if err != nil {
			if !strings.Contains(err.Error(), "lang:") {
				t.Fatalf("error %v does not identify the package", err)
			}
			return
		}
		if prog == nil {
			t.Fatal("nil program without error")
		}
		again, err := Parse(src)
		if err != nil {
			t.Fatalf("accepted input rejected on re-parse: %v", err)
		}
		if len(again.Structs) != len(prog.Structs) || len(again.Funcs) != len(prog.Funcs) {
			t.Fatalf("re-parse disagrees: %d/%d structs, %d/%d funcs",
				len(prog.Structs), len(again.Structs), len(prog.Funcs), len(again.Funcs))
		}
		for _, fn := range prog.Funcs {
			seen := map[Node]bool{}
			Inspect(fn.Body, func(n Node) bool {
				if v := reflect.ValueOf(n); !v.IsValid() || v.IsNil() {
					t.Fatalf("%s: Inspect handed its callback a nil %T", fn.Name, n)
				}
				if seen[n] {
					t.Fatalf("%s: Inspect visited %s twice", fn.Name, nodeLabel(n))
				}
				seen[n] = true
				return true
			})
		}
	})
}
