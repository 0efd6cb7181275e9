package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"cosched/internal/clock"
	"cosched/internal/scenario"
)

// fuzzInit returns the init line for a one-axis, four-unit variant of
// distTestSpec and the spec's unit count.
func fuzzInit(f *testing.F) ([]byte, int) {
	f.Helper()
	sp := distTestSpec()
	sp.Axes = []scenario.Axis{{Param: scenario.ParamP, Values: []float64{8, 12}}}
	sp.Replicates = 2
	fp, err := sp.Fingerprint()
	if err != nil {
		f.Fatal(err)
	}
	spec, err := json.Marshal(sp)
	if err != nil {
		f.Fatal(err)
	}
	line, err := json.Marshal(ctrlMsg{Type: "init", Spec: spec, Fingerprint: fmt.Sprintf("%016x", fp), HeartbeatMS: 1000})
	if err != nil {
		f.Fatal(err)
	}
	return append(line, '\n'), 2 * sp.Replicates
}

// FuzzWorkerMain feeds WorkerMain a valid init followed by arbitrary
// control bytes, on a fake clock that never fires a heartbeat. The
// worker must return without panicking and answer exactly as a mirror
// decode of the same bytes predicts: per grant, one result per unit in
// grant order carrying the grant's lease, and nothing else; an
// out-of-range unit instead yields one error message and an error
// return, with nothing after it. The run ends cleanly only at shutdown
// or a clean EOF.
func FuzzWorkerMain(f *testing.F) {
	initLine, total := fuzzInit(f)
	for _, seed := range []string{
		"",
		`{"type":"shutdown"}`,
		`{"type":"grant","lease":1,"units":[0,1]}` + "\n" + `{"type":"grant","lease":2,"units":[3]}` + "\n" + `{"type":"shutdown"}`,
		`{"type":"grant","lease":5,"units":[2,4]}`,
		`{"type":"grant","lease":7,"units":[-1]}`,
		`{"type":"grant","lease":3}{"type":"init"}{"type":"bogus"}`,
		`{"type":"grant","lease":1,"units":"x"}`,
		`{"type":"gra`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, ctrl []byte) {
		in := append(append([]byte(nil), initLine...), ctrl...)
		var out bytes.Buffer
		err := WorkerMain(bytes.NewReader(in), &out, WorkerConfig{Clock: clock.NewFake(time.Unix(0, 0))})

		// What the worker must have sent, from a mirror decode of in.
		want := []workMsg{{Type: "ready", TotalUnits: total}}
		wantErr := false
		dec := json.NewDecoder(bytes.NewReader(in))
		var init ctrlMsg
		if derr := dec.Decode(&init); derr != nil {
			t.Fatalf("init line does not decode: %v", derr)
		}
	stream:
		for {
			var msg ctrlMsg
			if derr := dec.Decode(&msg); derr != nil {
				wantErr = !errors.Is(derr, io.EOF)
				break
			}
			switch msg.Type {
			case "shutdown":
				break stream
			case "grant":
				for _, u := range msg.Units {
					if u < 0 || u >= total {
						want = append(want, workMsg{Type: "error"})
						wantErr = true
						break stream
					}
					want = append(want, workMsg{Type: "result", Lease: msg.Lease, Unit: u})
				}
			}
		}
		if (err != nil) != wantErr {
			t.Fatalf("WorkerMain returned %v, want error: %v", err, wantErr)
		}

		odec := json.NewDecoder(&out)
		for i, w := range want {
			var got workMsg
			if derr := odec.Decode(&got); derr != nil {
				t.Fatalf("message %d: %v (want %s)", i, derr, w.Type)
			}
			if got.Type != w.Type || got.Lease != w.Lease || got.Unit != w.Unit || got.TotalUnits != w.TotalUnits {
				t.Fatalf("message %d: got %+v, want %+v", i, got, w)
			}
			switch got.Type {
			case "result":
				if len(got.Vals) == 0 {
					t.Fatalf("message %d: result for unit %d carries no values", i, got.Unit)
				}
			case "error":
				if got.Msg == "" {
					t.Fatalf("message %d: error message is empty", i)
				}
			}
		}
		var extra workMsg
		if derr := odec.Decode(&extra); !errors.Is(derr, io.EOF) {
			t.Fatalf("unexpected message after the predicted stream: %+v (%v)", extra, derr)
		}
	})
}
