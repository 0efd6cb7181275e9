package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"

	"cosched/internal/scenario"
)

// Manifest is an append-only JSONL journal of completed campaign units
// — and, for distributed campaigns, the shared coordination log. The
// first line binds the journal to one (spec, seed) via the spec's
// fingerprint; each following line records either one finished unit or
// one lease event (claim/renew/release/expire/quarantine, written only
// by the distributed coordinator). Restarting a campaign with the same
// manifest restores the journaled units instead of recomputing them; a
// manifest written for a different spec is refused. Unit records are
// the only authority for exactly-once folding — lease records are
// advisory coordination state that a restart treats as stale (every
// lease of a dead coordinator is dead with it), except quarantine
// records, which persist a unit's poisoned status across restarts.
//
// Single-process campaigns never write lease records, so their journals
// are byte-identical to the pre-distributed format; and because restore
// skips lease records, a distributed campaign's log resumes cleanly
// under the single-process runner too.
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

// Lease event kinds recorded in the coordination log.
const (
	// LeaseClaim grants a unit range to a worker.
	LeaseClaim = "claim"
	// LeaseRenew extends a live lease's expiry (heartbeat received).
	LeaseRenew = "renew"
	// LeaseRelease ends a lease whose units all completed.
	LeaseRelease = "release"
	// LeaseExpire voids a lease after worker death or heartbeat timeout;
	// its unfolded units return to the pending set.
	LeaseExpire = "expire"
	// LeaseQuarantine marks a unit that exhausted its retry budget
	// (it killed too many workers); it is reported, never re-leased,
	// and the mark survives restarts.
	LeaseQuarantine = "quarantine"
)

// LeaseRecord is one coordination-log entry: a lease lifecycle event
// written by the distributed coordinator alongside the unit journal.
// The Event value doubles as the type tag on the wire (the "lease" JSON
// key), so unit records — which never carry it — stay parseable by
// pre-distributed readers.
type LeaseRecord struct {
	Event  string `json:"lease"`
	ID     int    `json:"id"`
	Worker int    `json:"worker"`
	// Units lists the unit indices the event covers: the granted range
	// for claims, the returned remainder for expiries, the single
	// poisoned unit for quarantines. Renew/release records omit it.
	Units []int `json:"units,omitempty"`
}

// manifestLine is the union read shape: a unit record, a lease record,
// or the header (distinguished by which keys are present).
type manifestLine struct {
	Unit      int       `json:"unit"`
	Makespans []float64 `json:"makespans"`
	Event     string    `json:"lease"`
	ID        int       `json:"id"`
	Worker    int       `json:"worker"`
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
// "lease"); a non-nil return aborts the write with that error, exactly
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
// metricsPerPolicy entries) and every lease record through leaseFn (when
// non-nil), and leaves the file open for appending. It returns the
// number of restored units. A missing or empty file starts a fresh
// journal; a truncated trailing line (interrupted write — unit or lease
// alike) is dropped and repaired, and a file holding nothing but a
// truncated header (a crash during the very first write) restarts from
// scratch.
func (m *Manifest) Restore(sp scenario.Spec, policies int, fn func(unit int, vals []float64), leaseFn func(LeaseRecord)) (int, error) {
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
						// (a torn unit or lease record alike); cut it off and
						// let the coordinator re-issue it.
						tailTruncated = true
						break
					}
					return 0, fmt.Errorf("campaign: manifest %s line %d: %w", m.path, li+2, err)
				}
				if u.Event != "" {
					// Coordination record: advisory, never counted as a unit.
					if leaseFn != nil {
						leaseFn(LeaseRecord{Event: u.Event, ID: u.ID, Worker: u.Worker, Units: u.Units})
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
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.enc == nil {
		return fmt.Errorf("campaign: manifest %s not opened by a campaign run", m.path)
	}
	if err := m.hookErrLocked("unit"); err != nil {
		return err
	}
	if err := m.enc.Encode(manifestUnit{Unit: unit, Makespans: vals}); err != nil {
		return fmt.Errorf("campaign: appending to manifest: %w", err)
	}
	return m.syncLocked()
}

// AppendLease journals one coordination-log lease event. The
// distributed coordinator is the only writer; sync mode applies as for
// units.
func (m *Manifest) AppendLease(rec LeaseRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.enc == nil {
		return fmt.Errorf("campaign: manifest %s not opened by a campaign run", m.path)
	}
	if rec.Event == "" {
		return fmt.Errorf("campaign: lease record without an event")
	}
	if err := m.hookErrLocked("lease"); err != nil {
		return err
	}
	if err := m.enc.Encode(rec); err != nil {
		return fmt.Errorf("campaign: appending lease record: %w", err)
	}
	return m.syncLocked()
}
