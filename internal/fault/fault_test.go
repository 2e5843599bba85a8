package fault

import (
	"testing"

	"learnedftl/internal/nand"
)

const cwBits = 4096 * 8 // one 4KB page per codeword

// enabled returns Default() switched on, the base for knob tweaks.
func enabled() Config {
	c := Default()
	c.Enabled = true
	return c
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero (disabled) config invalid: %v", err)
	}
	if err := enabled().Validate(); err != nil {
		t.Fatalf("enabled default invalid: %v", err)
	}
	for _, tc := range []struct {
		name  string
		tweak func(*Config)
	}{
		{"negative BER", func(c *Config) { c.BaseBER = -1 }},
		{"negative retries", func(c *Config) { c.RetrySteps = -1 }},
		{"program prob > 1", func(c *Config) { c.ProgramFailProb = 1.5 }},
		{"erase prob < 0", func(c *Config) { c.EraseFailProb = -0.1 }},
		{"scrub fraction > 1", func(c *Config) { c.ScrubAtFraction = 2 }},
	} {
		c := enabled()
		tc.tweak(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestReadFaultDeterministic: identical inputs must produce identical
// outcomes — the property every byte-identical sweep rests on.
func TestReadFaultDeterministic(t *testing.T) {
	m := New(enabled(), cwBits)
	for p := nand.PPN(0); p < 64; p++ {
		a := m.ReadFault(p, 10, 3, nand.Second)
		b := m.ReadFault(p, 10, 3, nand.Second)
		if a != b {
			t.Fatalf("page %d: outcomes differ: %+v vs %+v", p, a, b)
		}
	}
}

// TestReadFaultThresholds walks one codeword across the ECC regimes by
// raising the raw BER: clean, scrub-flagged, retry-corrected, and
// uncorrectable, in that order.
func TestReadFaultThresholds(t *testing.T) {
	base := enabled() // ECC 40, 2 retry steps at factor 0.5, flag at 20
	at := func(ber float64) nand.ReadOutcome {
		c := base
		c.BaseBER = ber
		return New(c, cwBits).ReadFault(7, 1, 1, 0)
	}
	// errs = ber·cwBits·jitter with jitter in [0.9, 1.1).
	if o := at(1e-5); o != (nand.ReadOutcome{}) {
		t.Fatalf("clean read produced %+v", o)
	}
	if o := at(7.5e-4); o.Retries != 0 || o.Uncorrectable || !o.Scrub {
		t.Fatalf("at-risk read produced %+v, want scrub flag only", o)
	}
	if o := at(2e-3); o.Retries == 0 || o.Uncorrectable || !o.Scrub {
		t.Fatalf("retry-band read produced %+v, want retries that converge", o)
	}
	if o := at(6e-3); o.Retries != base.RetrySteps || !o.Uncorrectable || !o.Scrub {
		t.Fatalf("lethal read produced %+v, want exhausted ladder and data loss", o)
	}
}

// TestReadFaultMonotoneInBER: raising any BER component can only push a
// read toward more retries and uncorrectability, never away.
func TestReadFaultMonotoneInBER(t *testing.T) {
	sev := func(o nand.ReadOutcome) int {
		s := o.Retries
		if o.Scrub {
			s += 100
		}
		if o.Uncorrectable {
			s += 10000
		}
		return s
	}
	ladder := []float64{1e-5, 1e-4, 1e-3, 3e-3, 6e-3, 1e-2}
	for p := nand.PPN(0); p < 16; p++ {
		prev := -1
		for _, ber := range ladder {
			c := enabled()
			c.BaseBER = ber
			cur := sev(New(c, cwBits).ReadFault(p, 5, 2, nand.Second))
			if cur < prev {
				t.Fatalf("page %d: severity fell from %d to %d at BER %v", p, prev, cur, ber)
			}
			prev = cur
		}
	}
}

// TestWearRetentionDisturbContribute: each aging axis alone must be able to
// carry a page from clean to flagged.
func TestWearRetentionDisturbContribute(t *testing.T) {
	c := enabled()
	c.BaseBER = 1e-5
	c.WearBER = 1e-6
	c.RetentionBERPerSec = 1e-4
	c.DisturbBER = 1e-6
	m := New(c, cwBits)
	if o := m.ReadFault(3, 1, 1, 0); o.Scrub {
		t.Fatalf("fresh page already flagged: %+v", o)
	}
	if o := m.ReadFault(3, 1, 1000, 0); !o.Scrub {
		t.Fatalf("worn page not flagged: %+v", o)
	}
	if o := m.ReadFault(3, 1, 1, 10*nand.Second); !o.Scrub {
		t.Fatalf("retention-aged page not flagged: %+v", o)
	}
	if o := m.ReadFault(3, 1000, 1, 0); !o.Scrub {
		t.Fatalf("read-disturbed page not flagged: %+v", o)
	}
}

func TestProgramEraseFaultDraws(t *testing.T) {
	c := enabled()
	c.ProgramFailProb = 1
	c.EraseFailProb = 1
	m := New(c, cwBits)
	if !m.ProgramFault(5, 0) || !m.EraseFault(5, 0) {
		t.Fatal("probability-1 faults did not fire")
	}
	c.ProgramFailProb = 0
	c.EraseFailProb = 0
	m = New(c, cwBits)
	for i := 0; i < 1000; i++ {
		if m.ProgramFault(nand.PPN(i), int64(i)) || m.EraseFault(i, int64(i)) {
			t.Fatal("probability-0 fault fired")
		}
	}
	// Moderate probabilities land near their target over many draws.
	c.ProgramFailProb = 0.1
	m = New(c, cwBits)
	hits := 0
	for i := 0; i < 10000; i++ {
		if m.ProgramFault(nand.PPN(i), 0) {
			hits++
		}
	}
	if hits < 800 || hits > 1200 {
		t.Fatalf("program fail rate %d/10000, want ~1000", hits)
	}
}

// TestModelAllocationFree pins the hot-path contract: fault verdicts run
// per page read/program and must not allocate.
func TestModelAllocationFree(t *testing.T) {
	m := New(enabled(), cwBits)
	var sink nand.ReadOutcome
	if a := testing.AllocsPerRun(1000, func() {
		sink = m.ReadFault(9, 42, 7, nand.Second)
		m.ProgramFault(9, 7)
		m.EraseFault(9, 7)
	}); a != 0 {
		t.Fatalf("fault model allocated %.1f times per verdict", a)
	}
	_ = sink
}
