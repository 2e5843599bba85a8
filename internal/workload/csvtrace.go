package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"learnedftl/internal/sim"
)

// CSV trace interchange. Real block traces (the UMass or SYSTOR downloads,
// or anything a user converts) can be replayed through the simulator with a
// three-column CSV: op (R/W), lpn, pages. WriteCSVTrace serializes any
// generator stream to the same format, so synthetic traces can be exported,
// inspected and replayed bit-identically.

// ReadCSVTrace parses a trace from r. Lines are `op,lpn,pages` with op R or
// W (case-insensitive); blank lines are skipped. LPNs outside [0, lp) are
// wrapped, and page counts are clipped, so traces recorded against larger
// devices replay on smaller ones, as the paper scales the WebSearch traces.
func ReadCSVTrace(r io.Reader, lp int64) ([]sim.Request, error) {
	if lp <= 0 {
		return nil, fmt.Errorf("workload: csv trace onto a device of %d logical pages", lp)
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	var out []sim.Request
	for line := 1; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: csv trace line %d: %w", line, err)
		}
		var write bool
		switch rec[0] {
		case "R", "r":
			write = false
		case "W", "w":
			write = true
		default:
			return nil, fmt.Errorf("workload: csv trace line %d: bad op %q", line, rec[0])
		}
		lpn, err := strconv.ParseInt(rec[1], 10, 64)
		if err != nil || lpn < 0 {
			return nil, fmt.Errorf("workload: csv trace line %d: bad lpn %q", line, rec[1])
		}
		pages, err := strconv.Atoi(rec[2])
		if err != nil || pages < 1 {
			return nil, fmt.Errorf("workload: csv trace line %d: bad pages %q", line, rec[2])
		}
		lpn %= lp
		if int64(pages) > lp-lpn {
			pages = int(lp - lpn)
		}
		out = append(out, sim.Request{Write: write, LPN: lpn, Pages: pages})
	}
	return out, nil
}

// WriteCSVTrace drains a generator to w in the ReadCSVTrace format and
// returns the number of requests written.
func WriteCSVTrace(w io.Writer, gen sim.Generator) (int, error) {
	cw := csv.NewWriter(w)
	n := 0
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		op := "R"
		if req.Write {
			op = "W"
		}
		if err := cw.Write([]string{op,
			strconv.FormatInt(req.LPN, 10), strconv.Itoa(req.Pages)}); err != nil {
			return n, err
		}
		n++
	}
	cw.Flush()
	return n, cw.Error()
}

// Replay returns generators that deal the recorded requests round-robin to
// `threads` workers, preserving per-worker order.
func Replay(reqs []sim.Request, threads int) []sim.Generator {
	gens := make([]sim.Generator, threads)
	for th := 0; th < threads; th++ {
		i := th
		gens[th] = sim.GenFunc(func() (sim.Request, bool) {
			if i >= len(reqs) {
				return sim.Request{}, false
			}
			r := reqs[i]
			i += threads
			return r, true
		})
	}
	return gens
}
