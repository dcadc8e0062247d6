package tuner

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/errs"
)

// Candidate is one point of the configuration space: a coarsening of the
// pipeline's cut, a serve batch size and a shard width, with the model's
// predicted score attached.
type Candidate struct {
	// Units names the served shape the way Plan.Units prints it ("[1+2] [3]":
	// which cuts of the one D-way cut are un-made); the caller holds the
	// concrete realization under Key.
	Units string
	// Batch and Shards complete the configuration.
	Batch, Shards int
	// Prior is the model-predicted score (higher is better; the adaptive
	// loop uses predicted packets per second).
	Prior float64
}

// Key returns the candidate's stable identity, used for deterministic
// tie-breaking and for reporting.
func (c Candidate) Key() string {
	return fmt.Sprintf("%s/b%02d/p%02d", c.Units, c.Batch, c.Shards)
}

// Measurement is the outcome of probing one candidate with real traffic.
type Measurement struct {
	// PPS is the measured packets per second over the probe window.
	PPS float64
	// P99 is the 99th-percentile batch latency over the probe window (0
	// when the objective does not require latency, so no tracer ran).
	P99 time.Duration
}

// Objective declares what the tuner optimizes. The zero value is pure
// maximum throughput; a positive P99Bound restricts the choice to
// candidates whose measured 99th-percentile batch latency stays under the
// bound (falling back to the lowest-latency candidate when none qualify).
type Objective struct {
	P99Bound time.Duration
}

// Probe records one measured candidate in the decision log.
type Probe struct {
	Candidate Candidate
	Measured  Measurement
	// Err is non-nil when the probe failed to run; the candidate is
	// excluded from the decision.
	Err error
	// Explore marks the seeded exploration pick (probed despite its prior
	// rank).
	Explore bool
}

// Decision is the tuner's committed choice plus the evidence behind it.
type Decision struct {
	// Chosen is the winning candidate.
	Chosen Candidate
	// Measured is Chosen's probe measurement.
	Measured Measurement
	// Probes logs every measured candidate in probe order.
	Probes []Probe
	// Why is a one-paragraph human-readable justification.
	Why string
}

// Select ranks the candidates by prior, measures the top topK plus one
// seeded exploration pick, and commits to the winner under the objective.
// measure runs one candidate against real traffic; a measure error skips
// the candidate (recorded in the probe log). Select fails with
// errs.ErrBadOption when the inputs are malformed and with the first
// probe error when every probe failed.
//
// Select is deterministic for fixed (cands, topK, seed, obj) and a
// deterministic measure function: the ranking is a total order and the
// exploration index depends only on the seed.
func Select(cands []Candidate, topK int, seed int64, obj Objective, measure func(Candidate) (Measurement, error)) (*Decision, error) {
	if len(cands) == 0 || topK <= 0 || measure == nil {
		return nil, fmt.Errorf("tuner: %w: %d candidates, topK %d", errs.ErrBadOption, len(cands), topK)
	}
	ranked := append([]Candidate(nil), cands...)
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Prior != ranked[j].Prior {
			return ranked[i].Prior > ranked[j].Prior
		}
		return ranked[i].Key() < ranked[j].Key()
	})
	if topK > len(ranked) {
		topK = len(ranked)
	}
	toProbe := ranked[:topK]
	// One exploration pick from the remainder keeps a systematically wrong
	// prior from locking the tuner out of the true optimum.
	explore := -1
	if rest := len(ranked) - topK; rest > 0 {
		explore = topK + rand.New(rand.NewSource(seed)).Intn(rest)
		toProbe = append(toProbe, ranked[explore])
	}

	d := &Decision{}
	var firstErr error
	best := -1
	for i, c := range toProbe {
		m, err := measure(c)
		p := Probe{Candidate: c, Measured: m, Err: err, Explore: i == topK && explore >= 0}
		d.Probes = append(d.Probes, p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if best < 0 || better(m, d.Probes[best].Measured, obj) {
			best = i
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("tuner: every probe failed: %w", firstErr)
	}
	d.Chosen = d.Probes[best].Candidate
	d.Measured = d.Probes[best].Measured
	d.Why = why(d, obj)
	return d, nil
}

// better reports whether a beats b under the objective.
func better(a, b Measurement, obj Objective) bool {
	if obj.P99Bound > 0 {
		aOK, bOK := a.P99 <= obj.P99Bound, b.P99 <= obj.P99Bound
		switch {
		case aOK && !bOK:
			return true
		case !aOK && bOK:
			return false
		case !aOK && !bOK:
			// Neither qualifies: prefer the one closer to qualifying.
			return a.P99 < b.P99
		}
	}
	return a.PPS > b.PPS
}

// why renders the decision rationale.
func why(d *Decision, obj Objective) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chose %s at %.0f pkt/s", d.Chosen.Key(), d.Measured.PPS)
	if obj.P99Bound > 0 {
		if d.Measured.P99 <= obj.P99Bound {
			fmt.Fprintf(&b, " (p99 %v within bound %v)", d.Measured.P99, obj.P99Bound)
		} else {
			fmt.Fprintf(&b, " (no candidate met the p99 bound %v; this one is closest at %v)",
				obj.P99Bound, d.Measured.P99)
		}
	}
	fmt.Fprintf(&b, " from %d probes:", len(d.Probes))
	for _, p := range d.Probes {
		tag := ""
		if p.Explore {
			tag = " explore"
		}
		if p.Err != nil {
			fmt.Fprintf(&b, " %s=err(%v)%s", p.Candidate.Key(), p.Err, tag)
			continue
		}
		fmt.Fprintf(&b, " %s=%.0f%s", p.Candidate.Key(), p.Measured.PPS, tag)
	}
	return b.String()
}
