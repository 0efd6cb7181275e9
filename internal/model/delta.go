package model

import "slices"

// deltaOf builds the table for (tasks, res) at base's platform and cost
// model: the cache's near-miss build, for a pack the cache has matched
// to base's by content (samePack). The new table shares base's per-task
// records, which derive from the pack and platform alone, and starts
// with empty failure rows of its own, filled on demand like a cold
// table's. Nothing of base is written, and neither table is ever
// rebuilt in place. The result answers every query bit-identically to a
// Compile for res (pinned by TestRecompileDeltaByteEqualFull), whatever
// parameters base was built for, fault-free included.
func deltaOf(base *Compiled, tasks []Task, res Resilience) (*Compiled, error) {
	if err := res.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{
		tasks: tasks, res: res, rc: base.rc, p: base.p,
		maxJ: base.maxJ, trow: base.trow, sched: new(schedSlot),
	}
	if !res.FaultFree() {
		c.fail = new(failTable)
		c.fail.reset(len(tasks))
	}
	return c, nil
}

// samePack reports whether two packs are content-identical, the
// precondition for sharing compiled tables: the same slice, or tasks
// with equal fields and profiles of a known type with equal parameters.
// A profile of a type this package does not define compares unequal, as
// the cache cannot see its value.
func samePack(a, b []Task) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) > 0 && &a[0] == &b[0] {
		return true
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.ID != y.ID || x.Data != y.Data || x.Ckpt != y.Ckpt || x.Verify != y.Verify {
			return false
		}
		px, okx := profileValue(x.Profile)
		py, oky := profileValue(y.Profile)
		if !okx || !oky {
			return false
		}
		switch px := px.(type) {
		case Synthetic:
			if py, is := py.(Synthetic); !is || px != py {
				return false
			}
		case Table:
			if py, is := py.(Table); !is || !slices.Equal(px.Times, py.Times) {
				return false
			}
		}
	}
	return true
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
