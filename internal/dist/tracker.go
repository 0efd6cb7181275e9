// Package dist executes a campaign across worker processes: a
// coordinator leases the units the campaign Assembler releases to
// workers over a JSONL pipe protocol, folds streamed results through
// that same Assembler, and journals each folded unit — and each
// quarantined one — to the campaign manifest. Fixed and adaptive
// campaigns alike: an adaptive campaign's Assembler releases one batch
// per live point and the next only once that batch has folded, so the
// coordinator needs no adaptive-specific code. Robustness is the point:
// heartbeat-based failure detection, lease expiry and reassignment on
// worker death, bounded per-unit retry with quarantine, and graceful
// degradation to fewer workers when spawning fails. Unit values are a
// pure function of (spec, unit index) — every worker runs the same
// campaign.UnitRunner code path — so output is byte-identical to a
// single-process run for any worker topology and any fault schedule;
// leases exist for liveness, never for correctness.
package dist

import (
	"time"
)

// Lease is one grant of units to one worker. Units holds the indices
// the worker still owes (ascending); folding a unit's result removes
// it, so an expiring lease returns exactly the outstanding remainder,
// and the lease ends when its last owed unit folds.
type Lease struct {
	ID     int
	Worker int
	Units  []int
	Expiry time.Time
}

// Tracker is the coordinator's lease state machine, kept pure — no
// clock, no I/O, every method takes explicit time — so property tests
// can drive claim/renew/expire/result interleavings directly. It
// enforces the exactly-once contract: a unit folds at most once, only
// from a live lease that owns it, and the late messages of an expired
// or finished lease (renewals, results) are refused — no resurrection.
// Only units released through Add are ever claimed.
type Tracker struct {
	maxRetries int

	released    []bool
	folded      []bool
	quarantined []bool
	// wasExpired marks units returned by an expired lease, so the next
	// claim can report them as reassignments.
	wasExpired []bool
	// leaseOf maps unit → owning live lease ID, or -1.
	leaseOf []int
	// retries counts lease losses blamed on the unit (see Expire).
	retries []int

	open int // released units neither folded nor quarantined

	nextID int
	leases map[int]*Lease
}

// NewTracker builds a tracker over a space of total units, none of them
// released yet; a unit blamed for maxRetries lease losses is
// quarantined.
func NewTracker(total, maxRetries int) *Tracker {
	t := &Tracker{
		maxRetries:  maxRetries,
		released:    make([]bool, total),
		folded:      make([]bool, total),
		quarantined: make([]bool, total),
		wasExpired:  make([]bool, total),
		leaseOf:     make([]int, total),
		retries:     make([]int, total),
		leases:      map[int]*Lease{},
	}
	for i := range t.leaseOf {
		t.leaseOf[i] = -1
	}
	return t
}

// Add releases units for claiming. Releasing a unit twice is a no-op.
func (t *Tracker) Add(units ...int) {
	for _, u := range units {
		if u < 0 || u >= len(t.released) || t.released[u] {
			continue
		}
		t.released[u] = true
		if !t.folded[u] && !t.quarantined[u] {
			t.open++
		}
	}
}

// RestoreQuarantine marks one unit as quarantined (journal replay: a
// unit poisoned in a previous coordinator's life stays poisoned).
func (t *Tracker) RestoreQuarantine(unit int) {
	if unit >= 0 && unit < len(t.quarantined) && !t.quarantined[unit] && !t.folded[unit] {
		t.quarantined[unit] = true
		if t.released[unit] {
			t.open--
		}
	}
}

// Claim grants worker up to max pending units — released, unfolded,
// unleased — lowest indices first, so workers sweep the unit space in
// order and blame attribution (see Expire) stays sharp. It returns nil
// when nothing is pending.
// reassigned counts granted units whose previous lease expired — the
// cosched_dist_reassignments_total increment.
func (t *Tracker) Claim(worker, max int, now time.Time, ttl time.Duration) (l *Lease, reassigned int) {
	if max <= 0 {
		max = 1
	}
	var units []int
	for u := 0; u < len(t.folded) && len(units) < max; u++ {
		if t.released[u] && !t.folded[u] && !t.quarantined[u] && t.leaseOf[u] < 0 {
			units = append(units, u)
		}
	}
	if len(units) == 0 {
		return nil, 0
	}
	l = &Lease{ID: t.nextID, Worker: worker, Units: units, Expiry: now.Add(ttl)}
	t.nextID++
	t.leases[l.ID] = l
	for _, u := range units {
		t.leaseOf[u] = l.ID
		if t.wasExpired[u] {
			t.wasExpired[u] = false
			reassigned++
		}
	}
	return l, reassigned
}

// Renew extends a live lease's expiry. It reports false for an unknown,
// expired or finished lease — a zombie worker's heartbeat cannot revive
// a lease the coordinator already gave away.
func (t *Tracker) Renew(id int, now time.Time, ttl time.Duration) bool {
	l, ok := t.leases[id]
	if !ok {
		return false
	}
	l.Expiry = now.Add(ttl)
	return true
}

// Result records one unit result arriving under lease id. fold reports
// whether the caller should fold the value: true exactly when the lease
// is live and still owns the unit. Duplicates, stale results from
// expired leases, and results for foreign units are refused — this is
// the exactly-once gate. ended reports that the unit was the lease's
// last owed one: the lease is over and its worker free for a new grant.
func (t *Tracker) Result(id, unit int) (fold, ended bool) {
	l, ok := t.leases[id]
	if !ok || unit < 0 || unit >= len(t.folded) || t.folded[unit] || t.leaseOf[unit] != id {
		return false, false
	}
	t.folded[unit] = true
	t.open--
	t.leaseOf[unit] = -1
	l.Units = removeUnit(l.Units, unit)
	if len(l.Units) > 0 {
		return true, false
	}
	delete(t.leases, id)
	return true, true
}

// Expire voids a live lease after worker death or heartbeat timeout.
// Outstanding units return to the pending set (marked for reassignment
// accounting) — except the blamed unit: workers execute their range in
// ascending order, so the first outstanding unit is the one the worker
// was executing when it died, and it alone takes a retry strike. A unit
// that reaches the retry cap is quarantined instead of re-leased:
// reported, never allowed to kill another worker. ok is false for an
// unknown, expired or finished lease (expiry is idempotent).
func (t *Tracker) Expire(id int) (returned, quarantined []int, ok bool) {
	l, ok := t.leases[id]
	if !ok {
		return nil, nil, false
	}
	delete(t.leases, id)
	for i, u := range l.Units {
		t.leaseOf[u] = -1
		if i == 0 {
			t.retries[u]++
			if t.retries[u] >= t.maxRetries {
				t.quarantined[u] = true
				t.open--
				quarantined = append(quarantined, u)
				continue
			}
		}
		t.wasExpired[u] = true
		returned = append(returned, u)
	}
	return returned, quarantined, true
}

// Due returns the IDs of leases whose expiry is at or before now, in
// expiry order (ID order within a tie, for determinism).
func (t *Tracker) Due(now time.Time) []int {
	var due []int
	for id, l := range t.leases {
		if !l.Expiry.After(now) {
			due = append(due, id)
		}
	}
	// Insertion sort by (expiry, id): lease counts are small.
	for i := 1; i < len(due); i++ {
		for j := i; j > 0; j-- {
			a, b := t.leases[due[j-1]], t.leases[due[j]]
			if a.Expiry.Before(b.Expiry) || (a.Expiry.Equal(b.Expiry) && due[j-1] < due[j]) {
				break
			}
			due[j-1], due[j] = due[j], due[j-1]
		}
	}
	return due
}

// NextExpiry returns the earliest live-lease expiry, if any.
func (t *Tracker) NextExpiry() (time.Time, bool) {
	var next time.Time
	found := false
	for _, l := range t.leases {
		if !found || l.Expiry.Before(next) {
			next, found = l.Expiry, true
		}
	}
	return next, found
}

// Done reports whether every released unit is folded or quarantined —
// the coordinator's termination condition once nothing more is
// released.
func (t *Tracker) Done() bool { return t.open == 0 }

// Total returns the campaign's unit count.
func (t *Tracker) Total() int { return len(t.folded) }

// Quarantined returns the quarantined unit indices, ascending.
func (t *Tracker) Quarantined() []int {
	var out []int
	for u, q := range t.quarantined {
		if q {
			out = append(out, u)
		}
	}
	return out
}

// removeUnit deletes one value from an ascending slice, preserving
// order.
func removeUnit(units []int, unit int) []int {
	for i, u := range units {
		if u == unit {
			return append(units[:i], units[i+1:]...)
		}
	}
	return units
}
