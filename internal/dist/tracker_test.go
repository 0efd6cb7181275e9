package dist

import (
	"fmt"
	"testing"
	"time"
)

var t0 = time.Unix(1_700_000_000, 0)

const ttl = 10 * time.Second

// releasedTracker is a tracker with every unit released — the fixed
// campaign's case, and the state space of the interleaving tests.
func releasedTracker(total, maxRetries int) *Tracker {
	tr := NewTracker(total, maxRetries)
	for u := 0; u < total; u++ {
		tr.Add(u)
	}
	return tr
}

// foldedCount returns the number of units tr has folded.
func foldedCount(tr *Tracker) int {
	n := 0
	for _, f := range tr.folded {
		if f {
			n++
		}
	}
	return n
}

// hasPending reports whether tr holds a claimable unit: released,
// unfolded, unquarantined and unleased.
func hasPending(tr *Tracker) bool {
	for u := range tr.folded {
		if tr.released[u] && !tr.folded[u] && !tr.quarantined[u] && tr.leaseOf[u] < 0 {
			return true
		}
	}
	return false
}

// complete reports whether tr is Done with no unit quarantined.
func complete(tr *Tracker) bool {
	return tr.Done() && len(tr.Quarantined()) == 0
}

// op is one step of an interleaving: a claim, or a lease-addressed
// renew/expire/result. Lease fields name the Nth claim's lease
// (IDs are sequential), so sequences can address leases that do not
// exist yet or died long ago — exactly the stale-message space the
// tracker must refuse.
type op struct {
	kind  string
	lease int
	unit  int
}

// trackerModel is the independent oracle: a deliberately naive
// re-statement of the lease contract (sets and maps, no indices) that
// the real Tracker must agree with on every prefix of every
// interleaving.
type trackerModel struct {
	folded  map[int]bool
	live    map[int][]int // lease id → owed units, ascending; never empty
	expired map[int]bool  // unit → returned by an expired lease
	nextID  int
}

func newTrackerModel() *trackerModel {
	return &trackerModel{folded: map[int]bool{}, live: map[int][]int{}, expired: map[int]bool{}}
}

func (m *trackerModel) pending(total int) []int {
	var out []int
	for u := 0; u < total; u++ {
		if m.folded[u] || m.owned(u) {
			continue
		}
		out = append(out, u)
	}
	return out
}

func (m *trackerModel) owned(u int) bool {
	for _, units := range m.live {
		for _, v := range units {
			if v == u {
				return true
			}
		}
	}
	return false
}

// applyOp drives both the tracker and the model one step and fails on
// any disagreement. seq is echoed on failure so a shrinking
// counterexample is copy-pasteable.
func applyOp(t *testing.T, tr *Tracker, m *trackerModel, o op, total int, seq []op) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Fatalf("sequence %v: op %+v: %s", seq, o, fmt.Sprintf(format, args...))
	}
	switch o.kind {
	case "claim":
		wantUnits := m.pending(total)
		l, reassigned := tr.Claim(0, total, t0, ttl)
		if len(wantUnits) == 0 {
			if l != nil {
				fail("claim granted %+v, want nil (nothing pending)", l)
			}
			return
		}
		if l == nil {
			fail("claim granted nothing, want units %v", wantUnits)
		}
		if l.ID != m.nextID {
			fail("claim granted lease %d, want %d", l.ID, m.nextID)
		}
		if fmt.Sprint(l.Units) != fmt.Sprint(wantUnits) {
			fail("claim granted units %v, want %v", l.Units, wantUnits)
		}
		wantReassigned := 0
		for _, u := range wantUnits {
			if m.expired[u] {
				wantReassigned++
				delete(m.expired, u)
			}
		}
		if reassigned != wantReassigned {
			fail("claim reported %d reassigned, want %d", reassigned, wantReassigned)
		}
		m.live[l.ID] = append([]int(nil), wantUnits...)
		m.nextID++
	case "renew":
		_, wantOK := m.live[o.lease]
		if got := tr.Renew(o.lease, t0, ttl); got != wantOK {
			fail("renew = %v, want %v", got, wantOK)
		}
	case "expire":
		wantReturned, wantOK := m.live[o.lease]
		returned, quarantined, ok := tr.Expire(o.lease)
		if ok != wantOK {
			fail("expire ok = %v, want %v", ok, wantOK)
		}
		if len(quarantined) != 0 {
			fail("expire quarantined %v with retry cap effectively off", quarantined)
		}
		if ok && fmt.Sprint(returned) != fmt.Sprint(wantReturned) {
			fail("expire returned %v, want %v", returned, wantReturned)
		}
		for _, u := range wantReturned {
			m.expired[u] = true
		}
		delete(m.live, o.lease)
	case "result":
		wantOK := false
		for _, u := range m.live[o.lease] {
			if u == o.unit {
				wantOK = !m.folded[o.unit]
			}
		}
		wantEnded := false
		if wantOK {
			m.folded[o.unit] = true
			units := m.live[o.lease][:0]
			for _, u := range m.live[o.lease] {
				if u != o.unit {
					units = append(units, u)
				}
			}
			m.live[o.lease] = units
			if len(units) == 0 {
				delete(m.live, o.lease)
				wantEnded = true
			}
		}
		if fold, ended := tr.Result(o.lease, o.unit); fold != wantOK || ended != wantEnded {
			fail("result = (%v, %v), want (%v, %v)", fold, ended, wantOK, wantEnded)
		}
	}
	// Global invariants, checked after every step of every sequence.
	if got, want := foldedCount(tr), len(m.folded); got != want {
		fail("folded count = %d, want %d — a unit folded twice or got lost", got, want)
	}
	if got, want := tr.Done(), len(m.folded) == total; got != want {
		fail("Done = %v, want %v", got, want)
	}
	if got, want := hasPending(tr), len(m.pending(total)) > 0; got != want {
		fail("has pending = %v, want %v", got, want)
	}
}

// TestTrackerInterleavingsExhaustive enumerates EVERY sequence of
// claim/renew/expire/result operations (over one 2-unit range and the
// first two lease IDs) up to depth 6 — 531441 interleavings — and
// checks the tracker against the naive model after every step. This is
// the exactly-once and no-resurrection proof by exhaustion: whatever
// order claims, renewals, expiries, and late results arrive in, a unit
// folds at most once, a lease ends exactly when its last owed unit
// folds, and a dead lease stays dead.
func TestTrackerInterleavingsExhaustive(t *testing.T) {
	const total = 2
	alphabet := []op{{kind: "claim"}}
	for id := 0; id < 2; id++ {
		alphabet = append(alphabet,
			op{kind: "renew", lease: id},
			op{kind: "expire", lease: id},
			op{kind: "result", lease: id, unit: 0},
			op{kind: "result", lease: id, unit: 1},
		)
	}
	depth := 6
	if testing.Short() {
		depth = 5
	}
	idx := make([]int, depth)
	seq := make([]op, depth)
	for {
		// A huge retry cap keeps quarantine out of this state space; the
		// blame path has its own targeted test below.
		tr := releasedTracker(total, 1<<30)
		m := newTrackerModel()
		for i, j := range idx {
			seq[i] = alphabet[j]
		}
		for i := range seq {
			applyOp(t, tr, m, seq[i], total, seq[:i+1])
		}
		i := 0
		for ; i < depth; i++ {
			idx[i]++
			if idx[i] < len(alphabet) {
				break
			}
			idx[i] = 0
		}
		if i == depth {
			return
		}
	}
}

// TestTrackerBlameAndQuarantine pins the blame-attribution contract:
// workers execute ascending, so an expiring lease's first outstanding
// unit takes the strike, and a unit reaching the retry cap is
// quarantined — excluded from every future claim, counted in Done but
// never by complete.
func TestTrackerBlameAndQuarantine(t *testing.T) {
	tr := releasedTracker(4, 2)
	l, _ := tr.Claim(0, 4, t0, ttl)
	if fmt.Sprint(l.Units) != "[0 1 2 3]" {
		t.Fatalf("first claim granted %v", l.Units)
	}
	tr.Result(l.ID, 0)
	tr.Result(l.ID, 1)
	returned, quarantined, ok := tr.Expire(l.ID)
	if !ok || fmt.Sprint(returned) != "[2 3]" || len(quarantined) != 0 {
		t.Fatalf("first expiry: returned %v quarantined %v ok %v", returned, quarantined, ok)
	}

	l2, reassigned := tr.Claim(1, 4, t0, ttl)
	if fmt.Sprint(l2.Units) != "[2 3]" || reassigned != 2 {
		t.Fatalf("reclaim granted %v (reassigned %d), want [2 3] (2)", l2.Units, reassigned)
	}
	returned, quarantined, _ = tr.Expire(l2.ID)
	if fmt.Sprint(quarantined) != "[2]" || fmt.Sprint(returned) != "[3]" {
		t.Fatalf("second expiry: unit 2 should hit the cap; returned %v quarantined %v", returned, quarantined)
	}

	l3, _ := tr.Claim(0, 4, t0, ttl)
	if fmt.Sprint(l3.Units) != "[3]" {
		t.Fatalf("post-quarantine claim granted %v, want [3] only", l3.Units)
	}
	if fold, _ := tr.Result(l3.ID, 3); !fold {
		t.Fatal("folding unit 3 refused")
	}
	if !tr.Done() || complete(tr) {
		t.Fatalf("Done=%v complete=%v, want done-but-incomplete", tr.Done(), complete(tr))
	}
	if fmt.Sprint(tr.Quarantined()) != "[2]" {
		t.Fatalf("Quarantined() = %v", tr.Quarantined())
	}
}

// TestTrackerNoResurrection spells out the stale-message contract the
// exhaustive test covers implicitly: once a lease expires, its renewals
// and results are refused, and its units fold only under the new
// lease, which ends with its last unit and then refuses renewal and
// expiry alike.
func TestTrackerNoResurrection(t *testing.T) {
	tr := releasedTracker(2, 3)
	l, _ := tr.Claim(0, 2, t0, ttl)
	if _, _, ok := tr.Expire(l.ID); !ok {
		t.Fatal("expire refused a live lease")
	}
	if tr.Renew(l.ID, t0, ttl) {
		t.Error("renew resurrected an expired lease")
	}
	if fold, _ := tr.Result(l.ID, 0); fold {
		t.Error("an expired lease's late result folded")
	}
	l2, _ := tr.Claim(1, 2, t0, ttl)
	if fold, ended := tr.Result(l2.ID, 0); !fold || ended {
		t.Fatalf("first result of the new lease = (%v, %v), want (true, false)", fold, ended)
	}
	if fold, ended := tr.Result(l2.ID, 1); !fold || !ended {
		t.Fatalf("last result of the new lease = (%v, %v), want (true, true)", fold, ended)
	}
	if tr.Renew(l2.ID, t0, ttl) {
		t.Error("renew revived a finished lease")
	}
	if _, _, ok := tr.Expire(l2.ID); ok {
		t.Error("expire voided a finished lease")
	}
	if !complete(tr) {
		t.Fatal("campaign incomplete after folding every unit")
	}
}

// TestTrackerDueOrder pins failure-detection ordering: Due returns
// expired leases in (expiry, id) order and NextExpiry tracks the
// earliest deadline as leases are renewed.
func TestTrackerDueOrder(t *testing.T) {
	tr := releasedTracker(6, 3)
	a, _ := tr.Claim(0, 2, t0, 5*time.Second)
	b, _ := tr.Claim(1, 2, t0, 2*time.Second)
	c, _ := tr.Claim(2, 2, t0, 8*time.Second)
	if next, ok := tr.NextExpiry(); !ok || !next.Equal(t0.Add(2*time.Second)) {
		t.Fatalf("NextExpiry = %v %v, want t0+2s", next, ok)
	}
	if !tr.Renew(b.ID, t0, 20*time.Second) {
		t.Fatal("renew refused")
	}
	if next, _ := tr.NextExpiry(); !next.Equal(t0.Add(5 * time.Second)) {
		t.Fatalf("NextExpiry after renew = %v, want t0+5s", next)
	}
	due := tr.Due(t0.Add(10 * time.Second))
	if fmt.Sprint(due) != fmt.Sprint([]int{a.ID, c.ID}) {
		t.Fatalf("Due = %v, want [%d %d] in expiry order", due, a.ID, c.ID)
	}
}

// TestTrackerClaimsOnlyReleased pins the unit-source gate: only units
// released through Add are claimable, Done tracks the released set (so
// an adaptive campaign's next batch reopens it), and a quarantine mark
// restored before its unit is released still blocks completion.
func TestTrackerClaimsOnlyReleased(t *testing.T) {
	tr := NewTracker(6, 3)
	if !tr.Done() || hasPending(tr) {
		t.Fatal("a tracker with nothing released has work")
	}
	tr.RestoreQuarantine(5)
	tr.Add(3, 1, 3)
	l, _ := tr.Claim(0, 6, t0, ttl)
	if fmt.Sprint(l.Units) != "[1 3]" {
		t.Fatalf("claim granted %v, want the released [1 3]", l.Units)
	}
	tr.Result(l.ID, 1)
	tr.Result(l.ID, 3)
	if !tr.Done() {
		t.Fatal("not Done after folding every released unit")
	}
	tr.Add(4, 5)
	if tr.Done() {
		t.Fatal("a newly released unit did not reopen the tracker")
	}
	l2, _ := tr.Claim(0, 6, t0, ttl)
	if fmt.Sprint(l2.Units) != "[4]" {
		t.Fatalf("claim granted %v, want [4] (5 is quarantined)", l2.Units)
	}
	tr.Result(l2.ID, 4)
	if !tr.Done() || complete(tr) {
		t.Fatalf("Done=%v complete=%v, want done-but-incomplete", tr.Done(), complete(tr))
	}
}
