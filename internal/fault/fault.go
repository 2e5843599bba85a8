// Package fault is the deterministic, seeded NAND reliability model. It
// maps the per-page state the flash array tracks — block erase count
// (wear), block read count since erase (read disturb) and retention age —
// to a raw bit-error rate, runs that through an ECC model with a
// correction threshold and a read-retry ladder, and draws program/erase
// failures that grow the bad-block list.
//
// Raw BER of a read is
//
//	ber = BaseBER + WearBER·erases + RetentionBERPerSec·age + DisturbBER·reads
//
// and the expected raw errors in one codeword (the page) are
// ber·codewordBits, jittered by a deterministic per-(page, read) hash draw
// in [0.9, 1.1) — codeword-to-codeword variation around the mean is modest,
// and a tight band keeps the margin between "flag for scrub" and
// "uncorrectable" a real window rather than jitter noise. ECC corrects up
// to ECCBits errors on the first sense; each of up to RetrySteps retry
// steps multiplies the error count by retryFactor (a shifted reference
// voltage recovers some raw errors) and costs nand.Timing.RetryLatency of
// chip occupancy. A codeword still above the threshold after the ladder is
// uncorrectable — a UBER event. Reads that needed the ladder's last step to
// converge flag their block for background scrub.
//
// Every outcome is a pure function of (page, per-block counters) under one
// fixed hash seed, so identical access sequences produce identical fault
// histories: sweeps stay byte-deterministic and monotone in the BER knobs.
package fault

import (
	"fmt"

	"learnedftl/internal/nand"
)

// Config parameterizes the reliability model. The zero value disables it.
type Config struct {
	// Enabled turns the model on. Off (the default), the flash array's
	// read/program/erase paths are the ideal-NAND paths, bit for bit.
	Enabled bool `json:"enabled,omitempty"`

	// BaseBER is the raw bit-error rate of a fresh, cold page.
	BaseBER float64 `json:"base_ber,omitempty"`
	// WearBER is the BER added per block erase.
	WearBER float64 `json:"wear_ber,omitempty"`
	// RetentionBERPerSec is the BER added per second since the block was
	// last programmed (charge leak).
	RetentionBERPerSec float64 `json:"retention_ber_per_sec,omitempty"`
	// DisturbBER is the BER added per read of the block since its last
	// erase (read disturb).
	DisturbBER float64 `json:"disturb_ber,omitempty"`

	// RetrySteps bounds the read-retry ladder.
	RetrySteps int `json:"retry_steps,omitempty"`

	// ProgramFailProb and EraseFailProb are per-operation grown-defect
	// probabilities.
	ProgramFailProb float64 `json:"program_fail_prob,omitempty"`
	EraseFailProb   float64 `json:"erase_fail_prob,omitempty"`

	// Scrub enables the background scrub work source: at-risk blocks are
	// rewritten in idle gaps before they go uncorrectable.
	Scrub bool `json:"scrub,omitempty"`
	// ScrubAtFraction flags a block for scrub once a read's error count
	// exceeds this fraction of the ECC threshold (default 0.5).
	ScrubAtFraction float64 `json:"scrub_at_fraction,omitempty"`
}

// ECCBits is the per-codeword correction capability: a 40-bit/codeword
// BCH class ECC.
const ECCBits = 40

// JitterFloor is the low end of the per-read jitter band [JitterFloor,
// JitterFloor+0.2) that scales a codeword's expected raw errors: a BER
// uncorrectable at the floor is uncorrectable at every draw.
const JitterFloor = 0.9

const (
	// retryFactor scales the raw error count per retry step: a shifted
	// reference voltage recovers half the raw errors.
	retryFactor = 0.5
	// seed seeds every hash draw; same seed, same fault history.
	seed = 1
)

// Default returns a disabled config whose knobs, once Enabled is set,
// model a two-step retry ladder in front of the ECCBits threshold.
func Default() Config {
	return Config{
		BaseBER:            1e-4,
		WearBER:            1e-8,
		RetentionBERPerSec: 1e-7,
		DisturbBER:         1e-8,
		RetrySteps:         2,
		ScrubAtFraction:    0.5,
	}
}

// Validate rejects nonsense knob combinations on an enabled config.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	switch {
	case c.BaseBER < 0 || c.WearBER < 0 || c.RetentionBERPerSec < 0 || c.DisturbBER < 0:
		return fmt.Errorf("fault: negative BER component in %+v", c)
	case c.RetrySteps < 0:
		return fmt.Errorf("fault: negative retry steps %d", c.RetrySteps)
	case c.ProgramFailProb < 0 || c.ProgramFailProb > 1:
		return fmt.Errorf("fault: program fail probability %v out of [0, 1]", c.ProgramFailProb)
	case c.EraseFailProb < 0 || c.EraseFailProb > 1:
		return fmt.Errorf("fault: erase fail probability %v out of [0, 1]", c.EraseFailProb)
	case c.ScrubAtFraction < 0 || c.ScrubAtFraction > 1:
		return fmt.Errorf("fault: scrub-at fraction %v out of [0, 1]", c.ScrubAtFraction)
	}
	return nil
}

// Model implements nand.FaultModel. All methods are allocation-free pure
// functions of their arguments and the config.
type Model struct {
	cfg    Config
	cwBits float64 // codeword size in bits (one page)
	thresh float64 // = ECCBits
	scrub  float64 // = ScrubAtFraction · ECCBits
}

// New builds the model for a device whose pages hold codewordBits bits.
func New(cfg Config, codewordBits int64) *Model {
	return &Model{
		cfg:    cfg,
		cwBits: float64(codewordBits),
		thresh: ECCBits,
		scrub:  cfg.ScrubAtFraction * ECCBits,
	}
}

// RetrySteps implements nand.FaultModel: the depth of the read-retry
// ladder. A torn page's read walks all of it before going uncorrectable.
func (m *Model) RetrySteps() int { return m.cfg.RetrySteps }

// splitmix64 is the finalizer of the splitmix64 generator — a cheap,
// high-quality 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash3 mixes the seed with two event coordinates.
func (m *Model) hash3(a, b uint64) uint64 {
	return splitmix64(splitmix64(splitmix64(seed)^a) ^ b)
}

// unit01 maps a hash to [0, 1) with 53 bits of precision.
func unit01(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// rawBER composes the four BER terms for one read.
func (m *Model) rawBER(blockReads, blockErases int64, age nand.Time) float64 {
	return m.cfg.BaseBER +
		m.cfg.WearBER*float64(blockErases) +
		m.cfg.RetentionBERPerSec*(float64(age)/float64(nand.Second)) +
		m.cfg.DisturbBER*float64(blockReads)
}

// ReadFault implements nand.FaultModel. The per-read jitter draw is keyed
// on (page, block read count), so replaying an access sequence replays its
// outcomes exactly, and raising any BER knob can only raise every read's
// error count — the monotonicity the faultsweep assertions rely on.
func (m *Model) ReadFault(p nand.PPN, blockReads, blockErases int64, age nand.Time) nand.ReadOutcome {
	ber := m.rawBER(blockReads, blockErases, age)
	jitter := JitterFloor + 0.2*unit01(m.hash3(uint64(p), uint64(blockReads)))
	errs := ber * m.cwBits * jitter
	var out nand.ReadOutcome
	if errs <= m.thresh {
		if errs > m.scrub {
			out.Scrub = true
		}
		return out
	}
	for errs > m.thresh && out.Retries < m.cfg.RetrySteps {
		out.Retries++
		errs *= retryFactor
	}
	if errs > m.thresh {
		out.Uncorrectable = true
	}
	// Any read that needed the ladder (or fell off it) is at risk: rewrite
	// the block before retention and disturb push it further.
	out.Scrub = true
	return out
}

// ProgramFault implements nand.FaultModel.
func (m *Model) ProgramFault(p nand.PPN, blockErases int64) bool {
	if m.cfg.ProgramFailProb <= 0 {
		return false
	}
	// Keyed on (page, erase count): one verdict per program of this page
	// in this block lifetime.
	u := unit01(m.hash3(uint64(p)|1<<62, uint64(blockErases)))
	return u < m.cfg.ProgramFailProb
}

// EraseFault implements nand.FaultModel.
func (m *Model) EraseFault(blockID int, blockErases int64) bool {
	if m.cfg.EraseFailProb <= 0 {
		return false
	}
	u := unit01(m.hash3(uint64(blockID)|1<<63, uint64(blockErases)))
	return u < m.cfg.EraseFailProb
}
