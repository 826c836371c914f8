package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/telemetry/span"
)

// Per-layer attribution: a traced run's spans are exported as the
// tracer's NDJSON, parsed back, and folded by span name into call counts,
// total time and self time. Self time is a span's duration minus the union
// of its children's intervals, each clipped to the parent's interval, so
// overlapping siblings are not subtracted twice and a child that outlives
// its parent only removes the part the parent covers.

// spanRec is the part of a span.Record the fold reads.
type spanRec struct {
	ID      uint64  `json:"id"`
	Parent  uint64  `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// parseSpans reads the tracer's NDJSON span log.
func parseSpans(r io.Reader) ([]spanRec, error) {
	dec := json.NewDecoder(r)
	var out []spanRec
	for {
		var rec spanRec
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("span log record %d: %w", len(out)+1, err)
		}
		out = append(out, rec)
	}
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Count   int
	TotalUS float64
	SelfUS  float64
}

func (s spanStat) meanUS() float64     { return ratio(s.TotalUS, float64(s.Count)) }
func (s spanStat) meanSelfUS() float64 { return ratio(s.SelfUS, float64(s.Count)) }

// foldSelf folds span records by name.
func foldSelf(recs []spanRec) map[string]spanStat {
	idx := make(map[uint64]int, len(recs))
	for i, r := range recs {
		idx[r.ID] = i
	}
	children := make([][][2]float64, len(recs))
	for _, c := range recs {
		p, ok := idx[c.Parent]
		if c.Parent == 0 || !ok {
			continue
		}
		ps, pe := recs[p].StartUS, recs[p].StartUS+recs[p].DurUS
		cs, ce := max(c.StartUS, ps), min(c.StartUS+c.DurUS, pe)
		if ce > cs {
			children[p] = append(children[p], [2]float64{cs, ce})
		}
	}
	out := make(map[string]spanStat)
	for i, r := range recs {
		st := out[r.Name]
		st.Count++
		st.TotalUS += r.DurUS
		st.SelfUS += r.DurUS - unionLen(children[i])
		out[r.Name] = st
	}
	return out
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]float64) float64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total float64
	cs, ce := ivs[0][0], ivs[0][1]
	for _, iv := range ivs[1:] {
		if iv[0] > ce {
			total += ce - cs
			cs, ce = iv[0], iv[1]
		} else if iv[1] > ce {
			ce = iv[1]
		}
	}
	return total + ce - cs
}

// foldTracer exports a finished tracer's spans and folds them. A dropped
// or still-open span would make the fold incomplete, so either is an
// error.
func foldTracer(tr *span.Tracer) (map[string]spanStat, error) {
	if n := tr.Dropped(); n > 0 {
		return nil, fmt.Errorf("tracer dropped %d spans", n)
	}
	if n := tr.Open(); n > 0 {
		return nil, fmt.Errorf("%d spans still open", n)
	}
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		return nil, err
	}
	recs, err := parseSpans(&buf)
	if err != nil {
		return nil, err
	}
	return foldSelf(recs), nil
}

// gsdSpanLayers sets the metrics folded from the GSD chain's own spans:
// gsd.solver ⊃ gsd.solve ⊃ gsd.sweep ⊃ gsd.loadsplit. A load-split span
// covers one proposal's split (water-filling, or a memo or speculation
// hit); the sweep's self time is the proposal draw, SetSpeed, the
// Metropolis accept and the solution copies.
func gsdSpanLayers(r *report, f map[string]spanStat) {
	r.set("gsd.solve_self_us", f["gsd.solve"].meanSelfUS())
	r.set("gsd.sweep_self_us", f["gsd.sweep"].meanSelfUS())
	r.set("loadbalance.split_us", f["gsd.loadsplit"].meanUS())
	r.set("loadbalance.splits_per_iter", ratio(float64(f["gsd.loadsplit"].Count), float64(f["gsd.sweep"].Count)))
}
