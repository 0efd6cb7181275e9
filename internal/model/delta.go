package model

// ProfilesEqual reports whether two speedup profiles are the same known
// profile with identical parameters. Only the concrete profile types this
// package defines compare — a custom Profile implementation returns
// (false, false) in the second result's sense: ok is false and the
// profiles must be treated as incomparable (a delta recompile or cache
// hit would have to prove value equality it cannot see).
func ProfilesEqual(a, b Profile) (equal, ok bool) {
	av, aok := profileValue(a)
	bv, bok := profileValue(b)
	if !aok || !bok {
		return false, false
	}
	switch pa := av.(type) {
	case Synthetic:
		pb, is := bv.(Synthetic)
		return is && pa == pb, true
	case Table:
		pb, is := bv.(Table)
		if !is || len(pa.Times) != len(pb.Times) {
			return false, true
		}
		for i := range pa.Times {
			if pa.Times[i] != pb.Times[i] {
				return false, true
			}
		}
		return true, true
	}
	return false, false
}

// profileValue normalizes the known profile types (value or pointer
// form) to their value form; ok is false for unknown implementations.
func profileValue(p Profile) (any, bool) {
	switch v := p.(type) {
	case Synthetic:
		return v, true
	case *Synthetic:
		return *v, true
	case Table:
		return v, true
	case *Table:
		return *v, true
	}
	return nil, false
}

// TasksEqual reports whether two tasks have identical compile-relevant
// content; ok is false when a profile is of an unknown type and content
// equality cannot be decided.
func TasksEqual(a, b Task) (equal, ok bool) {
	if a.ID != b.ID || a.Data != b.Data || a.Ckpt != b.Ckpt || a.Verify != b.Verify {
		return false, true
	}
	return ProfilesEqual(a.Profile, b.Profile)
}

// PacksEqual reports whether two task packs are content-identical —
// the precondition for sharing compiled tables across packs that are not
// the same slice. ok is false when any profile is incomparable.
func PacksEqual(a, b []Task) (equal, ok bool) {
	if len(a) != len(b) {
		return false, true
	}
	for i := range a {
		eq, cmp := TasksEqual(a[i], b[i])
		if !cmp {
			return false, false
		}
		if !eq {
			return false, true
		}
	}
	return true, true
}

// deltaCompatible reports whether base's profile columns can seed
// a compile of (tasks, rc, p): same platform and cost model and a
// content-identical pack.
func deltaCompatible(base *Compiled, tasks []Task, rc CostModel, p int) bool {
	if base == nil || len(base.tj) == 0 ||
		base.p != p || base.rc != rc || len(tasks) == 0 {
		return false
	}
	eq, ok := PacksEqual(tasks, base.tasks)
	return ok && eq
}

// RecompileDelta rebuilds c for (tasks, res, rc, p) from base, a table
// over the same pack, platform and cost model: c shares base's profile
// columns — t_{i,j}, C_{i,j}, m_i and the t-row metadata, which
// derive from the pack alone — and starts with empty failure rows of its
// own, filled on demand like any cold table's. It reports whether the
// delta path was taken (false means it fell back to a full Recompile,
// which writes c in place). base must not be c itself. base's columns
// are never written; because the two tables now share backing arrays, a
// delta build freezes both c and base. The result answers every query
// bit-identically to a full Recompile for the new parameters (pinned by
// TestRecompileDeltaByteEqualFull), whatever parameters base was built
// for, fault-free included.
func (c *Compiled) RecompileDelta(base *Compiled, tasks []Task, res Resilience, rc CostModel, p int) (bool, error) {
	c.mustMutate()
	if base == c || !deltaCompatible(base, tasks, rc, p) {
		return false, c.Recompile(tasks, res, rc, p)
	}
	if err := res.Validate(); err != nil {
		return false, err
	}
	if !base.frozen { // a published base is frozen already: no write, no race with its readers
		base.frozen = true
	}
	*c = Compiled{
		tasks: tasks, res: res, rc: rc, p: p,
		maxJ: base.maxJ, stride: base.stride,
		tj: base.tj, ck: base.ck, data: base.data, trow: base.trow, seg: base.seg,
		sched:  c.sched,
		frozen: true,
	}
	c.clearSchedule()
	if res.SilentActive() != base.res.SilentActive() {
		// seg depends on (λ_s, V) and the pack is the base's.
		c.seg = make([]segKind, len(tasks))
		for i, t := range tasks {
			c.seg[i] = segOf(res, t)
		}
	}
	if !res.FaultFree() {
		c.fail = new(failTable)
		c.fail.reset(len(tasks))
	}
	return true, nil
}
