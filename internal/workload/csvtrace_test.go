package workload

import (
	"bytes"
	"strings"
	"testing"

	"learnedftl/internal/sim"
)

func TestCSVTraceRoundTrip(t *testing.T) {
	gens := FIO(RandWrite, testLP, 4, 1, 200, 77)
	var buf bytes.Buffer
	n, err := WriteCSVTrace(&buf, gens[0])
	if err != nil || n != 200 {
		t.Fatalf("WriteCSVTrace: n=%d err=%v", n, err)
	}
	reqs, err := ReadCSVTrace(&buf, testLP)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 200 {
		t.Fatalf("read %d requests", len(reqs))
	}
	// Bit-identical to the original stream.
	orig := FIO(RandWrite, testLP, 4, 1, 200, 77)
	for i, got := range reqs {
		want, _ := orig[0].Next()
		if got != want {
			t.Fatalf("request %d: %+v != %+v", i, got, want)
		}
	}
}

func TestReadCSVTraceValidation(t *testing.T) {
	cases := []string{
		"X,0,1\n",    // bad op
		"R,-1,1\n",   // bad lpn
		"R,0,0\n",    // bad pages
		"R,zero,1\n", // unparsable
	}
	for _, c := range cases {
		if _, err := ReadCSVTrace(strings.NewReader(c), testLP); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
	for _, lp := range []int64{0, -1} {
		if _, err := ReadCSVTrace(strings.NewReader("R,0,1\n"), lp); err == nil {
			t.Errorf("accepted a device of %d logical pages", lp)
		}
	}
	// A page count whose end overflows int64 is clipped to the device, not
	// wrapped negative past the clip.
	reqs, err := ReadCSVTrace(strings.NewReader("R,5,9223372036854775807\n"), 100)
	if err != nil {
		t.Fatal(err)
	}
	if want := (sim.Request{LPN: 5, Pages: 95}); len(reqs) != 1 || reqs[0] != want {
		t.Fatalf("huge page count read as %+v, want [%+v]", reqs, want)
	}
}

func TestReadCSVTraceWrapsAndClips(t *testing.T) {
	in := "R,999999999,4\nW,65532,100\n"
	reqs, err := ReadCSVTrace(strings.NewReader(in), testLP)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if r.LPN < 0 || r.LPN+int64(r.Pages) > testLP {
			t.Fatalf("out of range after wrap/clip: %+v", r)
		}
	}
	if reqs[1].Pages != 4 { // 65536-65532
		t.Fatalf("clip gave %d pages", reqs[1].Pages)
	}
}

func TestReplayRoundRobin(t *testing.T) {
	reqs := []sim.Request{
		{LPN: 0}, {LPN: 1}, {LPN: 2}, {LPN: 3}, {LPN: 4},
	}
	gens := Replay(reqs, 2)
	var got0, got1 []int64
	for {
		r, ok := gens[0].Next()
		if !ok {
			break
		}
		got0 = append(got0, r.LPN)
	}
	for {
		r, ok := gens[1].Next()
		if !ok {
			break
		}
		got1 = append(got1, r.LPN)
	}
	if len(got0) != 3 || got0[0] != 0 || got0[1] != 2 || got0[2] != 4 {
		t.Fatalf("worker 0 got %v", got0)
	}
	if len(got1) != 2 || got1[0] != 1 || got1[1] != 3 {
		t.Fatalf("worker 1 got %v", got1)
	}
}
