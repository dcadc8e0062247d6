package tuner

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/errs"
)

// fakeMeasure scores candidates by a fixed table keyed on Key().
func fakeMeasure(table map[string]Measurement) func(Candidate) (Measurement, error) {
	return func(c Candidate) (Measurement, error) {
		m, ok := table[c.Key()]
		if !ok {
			return Measurement{}, fmt.Errorf("unmeasured %s", c.Key())
		}
		return m, nil
	}
}

func TestSelectMaxThroughput(t *testing.T) {
	cands := []Candidate{
		{Units: "d01", Batch: 32, Shards: 1, Prior: 100},
		{Units: "d02", Batch: 32, Shards: 1, Prior: 90},
		{Units: "d04", Batch: 32, Shards: 1, Prior: 80},
		{Units: "d01", Batch: 1, Shards: 1, Prior: 10},
	}
	table := map[string]Measurement{
		"d01/b32/p01": {PPS: 1000},
		"d02/b32/p01": {PPS: 1400}, // the model under-ranked the real winner
		"d04/b32/p01": {PPS: 700},
		"d01/b01/p01": {PPS: 200},
	}
	d, err := Select(cands, 3, 1, Objective{}, fakeMeasure(table))
	if err != nil {
		t.Fatal(err)
	}
	if d.Chosen.Key() != "d02/b32/p01" {
		t.Errorf("chose %s, want d02/b32/p01 (measurement beats prior)", d.Chosen.Key())
	}
	if len(d.Probes) != 4 { // topK=3 + 1 exploration pick
		t.Errorf("probes = %d, want 4", len(d.Probes))
	}
	if d.Why == "" {
		t.Error("empty decision rationale")
	}
}

func TestSelectP99Bound(t *testing.T) {
	cands := []Candidate{
		{Units: "d01", Batch: 64, Shards: 1, Prior: 100},
		{Units: "d01", Batch: 8, Shards: 1, Prior: 90},
	}
	table := map[string]Measurement{
		"d01/b64/p01": {PPS: 2000, P99: 50 * time.Millisecond}, // fast but laggy
		"d01/b08/p01": {PPS: 1200, P99: 2 * time.Millisecond},
	}
	d, err := Select(cands, 2, 1, Objective{P99Bound: 10 * time.Millisecond}, fakeMeasure(table))
	if err != nil {
		t.Fatal(err)
	}
	if d.Chosen.Key() != "d01/b08/p01" {
		t.Errorf("chose %s, want the candidate within the p99 bound", d.Chosen.Key())
	}

	// Nobody qualifies: lowest p99 wins.
	d, err = Select(cands, 2, 1, Objective{P99Bound: time.Millisecond}, fakeMeasure(table))
	if err != nil {
		t.Fatal(err)
	}
	if d.Chosen.Key() != "d01/b08/p01" {
		t.Errorf("chose %s, want the closest-to-bound candidate", d.Chosen.Key())
	}
}

// TestSelectDeterministic: the satellite requirement — identical inputs and
// seed must reproduce the identical decision, including the exploration
// pick and the probe order.
func TestSelectDeterministic(t *testing.T) {
	var cands []Candidate
	table := map[string]Measurement{}
	for d := 1; d <= 8; d++ {
		for _, b := range []int{1, 8, 32, 64} {
			c := Candidate{Units: fmt.Sprintf("d%02d", d), Batch: b, Shards: 1, Prior: float64(100 - d*b%37)}
			cands = append(cands, c)
			table[c.Key()] = Measurement{PPS: float64(500 + (d*31+b*7)%400)}
		}
	}
	first, err := Select(cands, 4, 42, Objective{}, fakeMeasure(table))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := Select(cands, 4, 42, Objective{}, fakeMeasure(table))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d differs:\n%+v\nvs\n%+v", i, first, again)
		}
	}
	// A different seed may move only the exploration pick, never the
	// ranked head of the probe list.
	other, err := Select(cands, 4, 7, Objective{}, fakeMeasure(table))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if other.Probes[i].Candidate != first.Probes[i].Candidate {
			t.Errorf("ranked probe %d changed with the seed", i)
		}
	}
}

func TestSelectProbeErrors(t *testing.T) {
	cands := []Candidate{
		{Units: "d01", Batch: 32, Shards: 1, Prior: 100},
		{Units: "d02", Batch: 32, Shards: 1, Prior: 90},
	}
	// Only the lower-ranked candidate measures successfully.
	table := map[string]Measurement{"d02/b32/p01": {PPS: 900}}
	d, err := Select(cands, 2, 1, Objective{}, fakeMeasure(table))
	if err != nil {
		t.Fatal(err)
	}
	if d.Chosen.Key() != "d02/b32/p01" {
		t.Errorf("chose %s despite probe failure", d.Chosen.Key())
	}

	// Everything fails: surface the first error.
	_, err = Select(cands, 2, 1, Objective{}, fakeMeasure(nil))
	if err == nil {
		t.Fatal("want error when every probe fails")
	}
}

func TestSelectBadInputs(t *testing.T) {
	m := fakeMeasure(map[string]Measurement{})
	if _, err := Select(nil, 3, 1, Objective{}, m); !errors.Is(err, errs.ErrBadOption) {
		t.Errorf("empty candidates: %v, want ErrBadOption", err)
	}
	if _, err := Select([]Candidate{{Units: "d01"}}, 0, 1, Objective{}, m); !errors.Is(err, errs.ErrBadOption) {
		t.Errorf("zero topK: %v, want ErrBadOption", err)
	}
	if _, err := Select([]Candidate{{Units: "d01"}}, 1, 1, Objective{}, nil); !errors.Is(err, errs.ErrBadOption) {
		t.Errorf("nil measure: %v, want ErrBadOption", err)
	}
}
