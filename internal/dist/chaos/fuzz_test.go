package chaos_test

import (
	"errors"
	"io"
	"path/filepath"
	"sync"
	"testing"

	"cosched/internal/dist"
	"cosched/internal/dist/chaos"
)

// scriptedSeat is a dist.Spawner whose seat-0 first process is a script:
// it writes a valid ready and then fixed bytes, exits, and drains
// whatever the coordinator sends it. Every other spawn goes to the
// chaos spawner, whose workers are the real WorkerMain.
type scriptedSeat struct {
	inner  *chaos.Spawner
	script []byte
	used   bool
	wg     sync.WaitGroup
}

func (s *scriptedSeat) Spawn(slot int) (*dist.WorkerProc, error) {
	if slot != 0 || s.used {
		return s.inner.Spawn(slot)
	}
	s.used = true
	stdinR, stdinW := io.Pipe()
	stdoutR, stdoutW := io.Pipe()
	killed := errors.New("scripted worker killed")
	var once sync.Once
	kill := func() {
		once.Do(func() {
			stdinW.CloseWithError(killed)
			stdinR.CloseWithError(killed)
			stdoutW.CloseWithError(killed)
			stdoutR.CloseWithError(killed)
		})
	}
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		io.Copy(io.Discard, stdinR)
	}()
	go func() {
		defer s.wg.Done()
		stdoutW.Write(s.script)
		stdoutW.Close()
	}()
	return &dist.WorkerProc{In: stdinW, Out: stdoutR, Kill: kill}, nil
}

// FuzzCoordinator feeds the coordinator arbitrary worker → coordinator
// bytes: seat 0's first process sends a valid ready and then the fuzzed
// bytes, and every later worker is the real WorkerMain. Whatever the
// bytes say, Run must return without panicking, and the journal must
// hold no unit twice and no lease line but quarantine marks; a
// successful run journals every unit exactly once. Values are not
// compared with the golden output: a fuzzed result on a live lease
// folds whatever values it carries.
func FuzzCoordinator(f *testing.F) {
	for _, seed := range []string{
		"",
		`{"type":"heartbeat"}`,
		`{"type":"result","lease":0,"unit":0,"vals":[1,2,3]}`,
		`{"type":"result","lease":0,"unit":0,"vals":[1,2,3]}` + "\n" + `{"type":"result","lease":0,"unit":0,"vals":[1,2,3]}`,
		`{"type":"result","lease":0,"unit":0,"vals":[1,2,3]}{"type":"result","lease":0,"unit":1,"vals":[1,2,3]}{"type":"result","lease":0,"unit":2,"vals":[1,2,3]}{"type":"result","lease":0,"unit":3,"vals":[1,2,3]}`,
		`{"type":"result","lease":0,"unit":7,"vals":[1,2,3]}`,
		`{"type":"result","lease":0,"unit":1,"vals":[1]}`,
		`{"type":"result","lease":9,"unit":-1}`,
		`{"type":"release","lease":0}`,
		`{"type":"ready","total_units":5}`,
		`{"type":"error","msg":"boom"}`,
		`{"type":"resu`,
	} {
		f.Add([]byte(seed))
	}
	ready := []byte(`{"type":"ready","total_units":12}` + "\n")
	f.Fuzz(func(t *testing.T, data []byte) {
		manifest := filepath.Join(t.TempDir(), "units.jsonl")
		seat := &scriptedSeat{script: append(append([]byte(nil), ready...), data...)}
		_, _, _, err := chaosRun(t, chaosOpts{
			workers:  2,
			manifest: manifest,
			wrap: func(spn *chaos.Spawner) dist.Spawner {
				seat.inner = spn
				return seat
			},
		})
		seat.wg.Wait()
		j := readJournal(t, manifest)
		if len(j.stale) > 0 {
			t.Errorf("journal holds lease lines %v; only quarantine marks belong there", j.stale)
		}
		for u, n := range j.units {
			if n > 1 {
				t.Errorf("unit %d journaled %d times", u, n)
			}
		}
		if err == nil {
			assertExactlyOnce(t, manifest, 12)
		}
	})
}
