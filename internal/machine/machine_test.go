package machine

import "testing"

func TestDefaultCostRatio(t *testing.T) {
	c := DefaultCost()
	ratio := float64(c.MigrateTotal()) / float64(c.MissTotal())
	if ratio < 6.5 || ratio > 7.5 {
		t.Fatalf("migration/miss ratio = %.2f; paper reports ≈7", ratio)
	}
}

func TestOccupySerializes(t *testing.T) {
	m := New(Config{Procs: 1})
	p := m.Procs[0]
	// Two threads each charge 100 cycles starting at time 0: the second
	// must start after the first.
	end1 := p.Occupy(0, 100)
	end2 := p.Occupy(0, 100)
	if end1 != 100 || end2 != 200 {
		t.Fatalf("ends = %d, %d; want 100, 200", end1, end2)
	}
	// A thread arriving later than the processor clock starts at its own
	// time.
	end3 := p.Occupy(1000, 50)
	if end3 != 1050 {
		t.Fatalf("end3 = %d; want 1050", end3)
	}
	if p.Busy() != 250 {
		t.Fatalf("busy = %d; want 250", p.Busy())
	}
}

func TestMakespan(t *testing.T) {
	m := New(Config{Procs: 4})
	if m.Makespan() != 0 || m.TotalBusy() != 0 {
		t.Fatal("a new machine starts at time zero")
	}
	m.Procs[2].Occupy(0, 500)
	m.Procs[0].Occupy(0, 100)
	if m.Makespan() != 500 {
		t.Fatalf("makespan = %d", m.Makespan())
	}
	if m.TotalBusy() != 600 {
		t.Fatalf("total busy = %d", m.TotalBusy())
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero processors")
		}
	}()
	New(Config{Procs: 0})
}

func TestMissPctZeroDenominator(t *testing.T) {
	var snap Stats
	if snap.MissPct() != 0 {
		t.Fatal("MissPct with no remote refs must be 0")
	}
}
