package sweep

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// The -scheds list grammar splits on commas that start a new
// scheduler name and on semicolons, never inside an entry's arguments.
func TestParseSchedulerList(t *testing.T) {
	for in, want := range map[string]string{
		"uniform":                       "uniform",
		"uniform, sticky:0.5,lottery":   "uniform|sticky:0.5|lottery",
		"lottery:1,2,uniform":           "lottery:1,2|uniform",
		"phased:3,1@50/1,3@50;weighted": "phased:3,1@50/1,3@50|weighted",
		"weighted:1,2;lottery:3,4":      "weighted:1,2|lottery:3,4",
	} {
		specs, err := ParseSchedulerList(in)
		if err != nil {
			t.Errorf("%q: %v", in, err)
			continue
		}
		names := make([]string, len(specs))
		for i, s := range specs {
			names[i] = s.String()
		}
		if got := strings.Join(names, "|"); got != want {
			t.Errorf("%q parsed as %q, want %q", in, got, want)
		}
	}
	for _, in := range []string{"", "uniform,", "bogus", "lottery:1,,2", "sticky:1.5,uniform"} {
		if specs, err := ParseSchedulerList(in); err == nil {
			t.Errorf("%q parsed as %v, want an error", in, specs)
		}
	}
}

// The full scheduler grammar, table-driven: every form the CLIs and
// the server's JSON decoding share.
func TestParseSchedulerFullGrammar(t *testing.T) {
	good := []struct {
		in   string
		want SchedulerSpec
	}{
		{"uniform", SchedulerSpec{Kind: SchedUniform}},
		{"roundrobin", SchedulerSpec{Kind: SchedRoundRobin}},
		{"sticky:0.9", SchedulerSpec{Kind: SchedSticky, Rho: 0.9}},
		{"sticky:0", SchedulerSpec{Kind: SchedSticky, Rho: 0}},
		{"lottery", SchedulerSpec{Kind: SchedLottery}},
		{"lottery:1,2,4", SchedulerSpec{Kind: SchedLottery, Tickets: []int{1, 2, 4}}},
		{"lottery: 3 , 5", SchedulerSpec{Kind: SchedLottery, Tickets: []int{3, 5}}},
		{"weighted", SchedulerSpec{Kind: SchedWeighted}},
		{"weighted:0.5,0.25,0.25", SchedulerSpec{Kind: SchedWeighted, Weights: []float64{0.5, 0.25, 0.25}}},
		{"phased:3,1@50/1,3@50", SchedulerSpec{Kind: SchedPhased, Phases: []PhaseSpec{
			{Weights: []float64{3, 1}, Steps: 50},
			{Weights: []float64{1, 3}, Steps: 50},
		}}},
		{"phased:1,1,2@1000", SchedulerSpec{Kind: SchedPhased, Phases: []PhaseSpec{
			{Weights: []float64{1, 1, 2}, Steps: 1000},
		}}},
		{"adversary:2", SchedulerSpec{Kind: SchedAdversary, Victim: 2}},
	}
	for _, tc := range good {
		got, err := ParseScheduler(tc.in)
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q parsed to %+v, want %+v", tc.in, got, tc.want)
		}
	}

	bad := []struct {
		in      string
		errWant string
	}{
		{"nope", "unknown scheduler"},
		{"uniform:1", "takes no argument"},
		{"roundrobin:2", "takes no argument"},
		{"sticky", "needs a stickiness"},
		{"sticky:abc", "parse sticky rho"},
		{"sticky:1.5", "out of [0, 1)"},
		{"sticky:-0.1", "out of [0, 1)"},
		{"sticky:NaN", "out of [0, 1)"},
		{"lottery:1,x", "parse lottery ticket"},
		{"lottery:0", "must be positive"},
		{"lottery:1,-2", "must be positive"},
		{"weighted:0.5,zero", "parse weight"},
		{"weighted:0", "strictly positive"},
		{"weighted:-1", "strictly positive"},
		{"weighted:1,+Inf", "strictly positive and finite"},
		{"weighted:NaN", "strictly positive"},
		{"phased", "needs phases"},
		{"phased:", "needs phases"},
		{"phased:1,2", "<weights>@<steps>"},
		{"phased:1,2@x", "parse phase 0 length"},
		{"phased:1,2@0", "zero length"},
		{"phased:1,2@50/3@", "parse phase 1 length"},
		{"phased:a@50", "parse weight"},
		{"adversary", "needs a victim"},
		{"adversary:x", "parse adversary victim"},
	}
	for _, tc := range bad {
		_, err := ParseScheduler(tc.in)
		if err == nil {
			t.Errorf("%q parsed without error", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.errWant) {
			t.Errorf("%q error %q does not mention %q", tc.in, err, tc.errWant)
		}
	}
}

// Every spec expressible in the grammar round-trips through String.
func TestSchedulerSpecStringRoundTrips(t *testing.T) {
	for _, in := range []string{
		"uniform", "roundrobin", "sticky:0.9", "lottery", "lottery:1,2,4",
		"weighted", "weighted:0.5,0.25,0.25", "phased:3,1@50/1,3@50",
		"adversary:2",
	} {
		spec, err := ParseScheduler(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if got := spec.String(); got != in {
			t.Errorf("String() = %q, want %q", got, in)
		}
		again, err := ParseScheduler(spec.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", spec.String(), err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Errorf("round trip of %q: %+v != %+v", in, again, spec)
		}
	}
}

// JSON decoding accepts both the canonical object form and the
// compact string form, which must agree with ParseScheduler verbatim.
func TestSchedulerSpecJSONStringForm(t *testing.T) {
	for _, tc := range []struct {
		jsonIn string
		want   string // grammar form of the expected spec
	}{
		{`"uniform"`, "uniform"},
		{`"sticky:0.25"`, "sticky:0.25"},
		{`"lottery:2,1"`, "lottery:2,1"},
		{`"phased:1,4@10/4,1@10"`, "phased:1,4@10/4,1@10"},
		{`{"kind":"sticky","rho":0.25}`, "sticky:0.25"},
		{`{"kind":"weighted","weights":[1,2]}`, "weighted:1,2"},
		{`{"kind":"phased","phases":[{"weights":[1,4],"steps":10}]}`, "phased:1,4@10"},
		{`{}`, "uniform"},
	} {
		var got SchedulerSpec
		if err := json.Unmarshal([]byte(tc.jsonIn), &got); err != nil {
			t.Errorf("unmarshal %s: %v", tc.jsonIn, err)
			continue
		}
		if got.String() != tc.want {
			t.Errorf("unmarshal %s = %q, want %q", tc.jsonIn, got, tc.want)
		}
	}
	var spec SchedulerSpec
	if err := json.Unmarshal([]byte(`"sticky:1.5"`), &spec); err == nil {
		t.Error("invalid string spec decoded without error")
	}
	if err := json.Unmarshal([]byte(`42`), &spec); err == nil {
		t.Error("numeric spec decoded without error")
	}

	// Marshal emits the object form, and it round-trips.
	orig := SchedulerSpec{Kind: SchedPhased, Phases: []PhaseSpec{
		{Weights: []float64{1, 2}, Steps: 5},
	}}
	b, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(string(b), `"`) {
		t.Fatalf("Marshal emitted string form: %s", b)
	}
	var back SchedulerSpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, orig) {
		t.Errorf("JSON round trip: %+v != %+v", back, orig)
	}
}

// Weighted and phased specs validate and build into running jobs.
func TestWeightedAndPhasedSpecsRun(t *testing.T) {
	for _, schedStr := range []string{
		"weighted", "weighted:1,2,3,4", "phased:3,1,1,1@50/1,1,1,3@50",
	} {
		spec, err := ParseScheduler(schedStr)
		if err != nil {
			t.Fatal(err)
		}
		job := Job{Workload: Workload{Kind: SCU, S: 1}, N: 4, Sched: spec, Steps: 20000}
		res, err := RunJob(job, 7, nil)
		if err != nil {
			t.Fatalf("%s: %v", schedStr, err)
		}
		if res.Latencies.Completions == 0 {
			t.Errorf("%s: no completions", schedStr)
		}
		if res.Theta <= 0 {
			t.Errorf("%s: theta %v not positive for a stochastic scheduler", schedStr, res.Theta)
		}
	}

	// Length mismatches are caught by Validate, not deep in build.
	for _, tc := range []struct {
		spec SchedulerSpec
		n    int
	}{
		{SchedulerSpec{Kind: SchedWeighted, Weights: []float64{1, 2}}, 4},
		{SchedulerSpec{Kind: SchedLottery, Tickets: []int{1, 2, 3}}, 2},
		{SchedulerSpec{Kind: SchedPhased, Phases: []PhaseSpec{{Weights: []float64{1}, Steps: 5}}}, 3},
		{SchedulerSpec{Kind: SchedPhased}, 3},
	} {
		if err := tc.spec.Validate(tc.n); err == nil {
			t.Errorf("%+v validated for n=%d", tc.spec, tc.n)
		}
	}
}
