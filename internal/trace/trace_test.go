package trace

import (
	"bytes"
	"strings"
	"testing"

	"cosched/internal/core"
	"cosched/internal/failure"
	"cosched/internal/model"
)

func sampleRun(t *testing.T) (*Log, core.Result, core.Instance) {
	t.Helper()
	long := model.Task{ID: 0, Data: 1e5, Ckpt: 100, Profile: model.Synthetic{M: 1e5, SeqFraction: 0.08}}
	short := model.Task{ID: 1, Data: 2e4, Ckpt: 20, Profile: model.Synthetic{M: 2e4, SeqFraction: 0.08}}
	in := core.Instance{Tasks: []model.Task{long, short}, P: 32,
		Res: model.Resilience{Lambda: 1e-7, Downtime: 60}}
	tr, _ := failure.NewTrace([]failure.Fault{{Time: 1e5, Proc: 0}})
	var log Log
	res, err := core.Run(in, core.Policy{OnFailure: core.FailShortestTasksFirst}, tr,
		core.Options{OnTrace: log.Hook()})
	if err != nil {
		t.Fatal(err)
	}
	return &log, res, in
}

// countKind returns how many events of the given kind were recorded.
func countKind(l *Log, kind string) int {
	n := 0
	for _, ev := range l.Events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

func TestLogCapturesRun(t *testing.T) {
	log, res, _ := sampleRun(t)
	if countKind(log, "failure") != res.Counters.Failures {
		t.Fatalf("trace has %d failures, counters say %d", countKind(log, "failure"), res.Counters.Failures)
	}
	// Every task emits exactly one end event (early finalizations too).
	if countKind(log, "end") != len(res.Finish) {
		t.Fatalf("trace has %d ends for %d tasks", countKind(log, "end"), len(res.Finish))
	}
	if countKind(log, "redistribute") != res.Counters.Redistributions {
		t.Fatalf("trace has %d redistributions, counters say %d",
			countKind(log, "redistribute"), res.Counters.Redistributions)
	}
	if countKind(log, "redistribute") == 0 {
		t.Fatal("scenario should redistribute (see core tests)")
	}
}

func TestRoundTrip(t *testing.T) {
	log, _, _ := sampleRun(t)
	var buf bytes.Buffer
	if err := log.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(log.Events) {
		t.Fatalf("round trip lost events: %d vs %d", len(back.Events), len(log.Events))
	}
	for i := range log.Events {
		if back.Events[i] != log.Events[i] {
			t.Fatalf("event %d differs after round trip", i)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("nope\n")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestTimelineRendering(t *testing.T) {
	log, _, _ := sampleRun(t)
	text := log.Timeline()
	for _, want := range []string{"FAILURE", "REDISTRIBUTE", "END"} {
		if !strings.Contains(text, want) {
			t.Fatalf("timeline missing %q:\n%s", want, text)
		}
	}
	lines := strings.Count(text, "\n")
	if lines != len(log.Events) {
		t.Fatalf("timeline has %d lines for %d events", lines, len(log.Events))
	}
}

func TestTimelineUnknownKind(t *testing.T) {
	l := Log{Events: []core.TraceEvent{{Time: 1, Kind: "custom", Task: 3}}}
	if !strings.Contains(l.Timeline(), "custom") {
		t.Fatal("unknown kinds must still render")
	}
}

func TestAllocationTimeline(t *testing.T) {
	log, res, in := sampleRun(t)
	sigma, err := core.InitialSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	steps := log.AllocationTimeline(sigma)
	if len(steps) != len(in.Tasks) {
		t.Fatalf("timeline covers %d tasks, want %d", len(steps), len(in.Tasks))
	}
	for task, ss := range steps {
		if ss[0].Time != 0 || ss[0].Procs != sigma[task] {
			t.Fatalf("task %d timeline does not start at the initial allocation", task)
		}
		last := ss[len(ss)-1]
		if last.Procs != 0 {
			t.Fatalf("task %d timeline does not end at 0 processors", task)
		}
		if last.Time != res.Finish[task] {
			t.Fatalf("task %d ends at %v in timeline, %v in result", task, last.Time, res.Finish[task])
		}
		for i := 1; i < len(ss); i++ {
			if ss[i].Time < ss[i-1].Time {
				t.Fatalf("task %d timeline not monotone", task)
			}
		}
	}
}
