package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"

	"cosched/internal/scenario"
)

// Manifest is an append-only JSONL journal of completed campaign units.
// The first line binds the journal to one (spec, seed) via the spec's
// fingerprint; each following line records one finished unit or — for
// distributed campaigns — one quarantined unit, a unit that killed too
// many workers. Restarting a campaign with the same manifest restores
// the journaled units instead of recomputing them, and keeps every
// quarantined unit quarantined; a manifest written for a different spec
// is refused. Unit records are the only authority for exactly-once
// folding.
//
// Quarantine marks are tagged by a "lease" key, which unit records never
// carry. Journals written by earlier versions also hold claim, renew,
// release and expire lease lines; restore skips them, as it skips
// quarantine marks when the caller does not ask for them, so any
// journal resumes under both the single-process and the distributed
// runner.
type Manifest struct {
	path string

	mu   sync.Mutex
	f    *os.File
	enc  *json.Encoder
	sync bool
	// writeErr, when non-nil, is consulted before every journal write —
	// the injectable-fs seam for durability tests (ENOSPC, permission
	// loss) and the chaos harness.
	writeErr func(op string) error
}

type manifestHeader struct {
	Fingerprint string `json:"fingerprint"`
	Units       int    `json:"units"`
	Policies    int    `json:"policies"`
}

// manifestUnit records one finished unit's value vector: one makespan
// per policy for offline campaigns, metricsPerPolicy values per policy
// (flattened policy-major) for online ones. The field keeps its original
// JSON name so offline manifests stay byte-compatible; online specs have
// distinct fingerprints, so the two layouts never mix in one journal.
type manifestUnit struct {
	Unit      int       `json:"unit"`
	Makespans []float64 `json:"makespans"`
}

// leaseQuarantine tags a quarantine mark: the "lease" key's value in
// {"lease":"quarantine","units":[u]}.
const leaseQuarantine = "quarantine"

// quarantineRecord is the write shape of a quarantine mark.
type quarantineRecord struct {
	Event string `json:"lease"`
	Units []int  `json:"units"`
}

// manifestLine is the union read shape: a unit record, a lease line (a
// quarantine mark, or another lease event an earlier version wrote), or
// the header (distinguished by which keys are present).
type manifestLine struct {
	Unit      int       `json:"unit"`
	Makespans []float64 `json:"makespans"`
	Event     string    `json:"lease"`
	Units     []int     `json:"units"`
}

// OpenManifest prepares a manifest at path. The file is created on first
// use; an existing file is validated and replayed when the campaign
// starts.
func OpenManifest(path string) (*Manifest, error) {
	if path == "" {
		return nil, fmt.Errorf("campaign: manifest path is empty")
	}
	return &Manifest{path: path}, nil
}

// SetSync selects the journal's durability mode. When on, every append
// is fsync'd before the unit counts as journaled, so a machine crash
// (not just a process crash) can never lose a unit the runner already
// reported done. The cost is one fsync per completed unit, which is why
// it is opt-in for the one-shot CLI (-manifest-sync) and always on in
// the campaign daemon and the distributed coordinator, whose restart
// contracts rest on the journal. Call it before the campaign starts.
func (m *Manifest) SetSync(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sync = on
}

// SetWriteErrHook installs the injectable-fs seam: h is consulted before
// every journal write with the operation kind ("header", "unit",
// "quarantine"); a non-nil return aborts the write with that error, exactly
// as a full disk would. Tests use it to prove spool failures surface
// instead of looping; pass nil to clear.
func (m *Manifest) SetWriteErrHook(h func(op string) error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writeErr = h
}

// Close flushes and closes the journal.
func (m *Manifest) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.f == nil {
		return nil
	}
	err := m.f.Close()
	m.f, m.enc = nil, nil
	return err
}

// Restore validates the journal against the spec, replays every recorded
// unit through fn (vals is the unit's flat value vector — policies ×
// metricsPerPolicy entries) and every quarantined unit through
// quarantine (when non-nil), and leaves the file open for appending. It
// returns the number of restored units. Every other lease line is
// skipped. A missing or empty file starts a fresh journal; a truncated
// trailing line (interrupted write — unit or lease line alike) is
// dropped and repaired, and a file holding nothing but a
// truncated header (a crash during the very first write) restarts from
// scratch.
func (m *Manifest) Restore(sp scenario.Spec, policies int, fn func(unit int, vals []float64), quarantine func(unit int)) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fp, err := sp.Fingerprint()
	if err != nil {
		return 0, err
	}
	points, err := sp.Expand()
	if err != nil {
		return 0, err
	}
	head := manifestHeader{
		Fingerprint: fmt.Sprintf("%016x", fp),
		Units:       len(points) * sp.ReplicateCap(),
		Policies:    policies,
	}

	blob, err := os.ReadFile(m.path)
	if os.IsNotExist(err) {
		blob = nil
	} else if err != nil {
		return 0, fmt.Errorf("campaign: reading manifest: %w", err)
	}

	restored := 0
	tailTruncated := false
	headerTruncated := false
	if len(blob) > 0 {
		var lines []string
		for _, l := range strings.Split(string(blob), "\n") {
			if strings.TrimSpace(l) != "" {
				lines = append(lines, l)
			}
		}
		if len(lines) == 0 {
			return 0, fmt.Errorf("campaign: manifest %s has no header", m.path)
		}
		var got manifestHeader
		if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
			if len(lines) == 1 && blob[len(blob)-1] != '\n' {
				// A crash during the very first write leaves a truncated
				// header and nothing else: no unit was ever journaled, so
				// the journal restarts from scratch instead of refusing
				// to resume.
				headerTruncated = true
			} else {
				return 0, fmt.Errorf("campaign: manifest %s header: %w", m.path, err)
			}
		}
		if !headerTruncated {
			if got != head {
				return 0, fmt.Errorf("campaign: manifest %s was written for a different campaign (fingerprint %s/%d units, want %s/%d) — delete it or change the manifest path",
					m.path, got.Fingerprint, got.Units, head.Fingerprint, head.Units)
			}
			seen := make(map[int]bool)
			for li, line := range lines[1:] {
				var u manifestLine
				if err := json.Unmarshal([]byte(line), &u); err != nil {
					if li == len(lines)-2 && blob[len(blob)-1] != '\n' {
						// An interrupted append leaves a truncated final line
						// (a torn unit or lease line alike); cut it off and
						// let the coordinator re-issue it.
						tailTruncated = true
						break
					}
					return 0, fmt.Errorf("campaign: manifest %s line %d: %w", m.path, li+2, err)
				}
				if u.Event != "" {
					// A lease line, never counted as a unit.
					if u.Event == leaseQuarantine && quarantine != nil {
						for _, q := range u.Units {
							quarantine(q)
						}
					}
					continue
				}
				if u.Unit < 0 || u.Unit >= head.Units || len(u.Makespans) != policies*metricsPerPolicy(sp) || seen[u.Unit] {
					return 0, fmt.Errorf("campaign: manifest %s has a corrupt unit record %d", m.path, u.Unit)
				}
				seen[u.Unit] = true
				fn(u.Unit, u.Makespans)
				restored++
			}
		}
	}

	switch {
	case headerTruncated:
		// Nothing recoverable: restart the journal from an empty file.
		if err := os.Truncate(m.path, 0); err != nil {
			return 0, fmt.Errorf("campaign: repairing manifest header: %w", err)
		}
		blob = nil
	case tailTruncated:
		// Cut the partial tail line off so new appends start clean and
		// later resumes never see it.
		keep := strings.LastIndexByte(string(blob), '\n') + 1
		if err := os.Truncate(m.path, int64(keep)); err != nil {
			return 0, fmt.Errorf("campaign: repairing manifest tail: %w", err)
		}
	}
	f, err := os.OpenFile(m.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, fmt.Errorf("campaign: opening manifest for append: %w", err)
	}
	m.f, m.enc = f, json.NewEncoder(f)
	switch {
	case len(blob) == 0:
		if err := m.hookErrLocked("header"); err != nil {
			return 0, err
		}
		if err := m.enc.Encode(head); err != nil {
			return 0, fmt.Errorf("campaign: writing manifest header: %w", err)
		}
		if err := m.syncLocked(); err != nil {
			return 0, err
		}
	case !tailTruncated && blob[len(blob)-1] != '\n':
		// The tail line parsed but lost its newline; complete it.
		if _, err := f.WriteString("\n"); err != nil {
			return 0, fmt.Errorf("campaign: repairing manifest tail: %w", err)
		}
	}
	return restored, nil
}

// syncLocked fsyncs the journal when durability mode is on. The caller
// holds m.mu.
func (m *Manifest) syncLocked() error {
	if !m.sync || m.f == nil {
		return nil
	}
	if err := m.f.Sync(); err != nil {
		return fmt.Errorf("campaign: syncing manifest: %w", err)
	}
	return nil
}

// hookErrLocked runs the injectable-fs hook for one write. The caller
// holds m.mu.
func (m *Manifest) hookErrLocked(op string) error {
	if m.writeErr == nil {
		return nil
	}
	return m.writeErr(op)
}

// AppendUnit journals one completed unit's flat value vector. In sync
// mode the record is fsync'd before AppendUnit returns, so a unit the
// campaign counts as done survives even a machine crash.
func (m *Manifest) AppendUnit(unit int, vals []float64) error {
	return m.appendRecord("unit", manifestUnit{Unit: unit, Makespans: vals})
}

// AppendQuarantine journals one quarantined unit, so a restart keeps it
// quarantined. The distributed coordinator is the only writer; sync mode
// applies as for units.
func (m *Manifest) AppendQuarantine(unit int) error {
	return m.appendRecord("quarantine", quarantineRecord{Event: leaseQuarantine, Units: []int{unit}})
}

// appendRecord writes one record line; op names it for the write hook.
func (m *Manifest) appendRecord(op string, rec any) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.enc == nil {
		return fmt.Errorf("campaign: manifest %s not opened by a campaign run", m.path)
	}
	if err := m.hookErrLocked(op); err != nil {
		return err
	}
	if err := m.enc.Encode(rec); err != nil {
		return fmt.Errorf("campaign: appending to manifest: %w", err)
	}
	return m.syncLocked()
}
