package core

import (
	"fmt"
	"sort"
	"strings"
)

// rule is one row of a policy table: the stable name that keys
// Policy.String() compositions, scenario specs, JSONL records and
// campaign fingerprints, and the function run on a primed Decision (nil
// for the None rows, which leave the schedule alone). Rules change
// allocations only through Decision.SetSigma, which enforces even
// allocations and processor conservation; a failure rule reads the
// faulty task from d.faulty and an arrival rule the admitted jobs from
// d.arrived.
type rule struct {
	name string
	run  func(*Decision)
}

// The policy tables, indexed by rule id. A new rule is one constant in
// types.go plus one row here; its name must be unique within its table,
// non-empty and free of '-' and '+', the composition separators.
var (
	endRules = [...]rule{
		EndNone:         {"EndNone", nil},
		EndLocal:        {"EndLocal", endLocal},
		EndGreedy:       {"EndGreedy", iteratedGreedy},
		EndProportional: {"EndProportional", endProportional},
	}
	failRules = [...]rule{
		FailNone:               {"FailNone", nil},
		FailShortestTasksFirst: {"ShortestTasksFirst", shortestTasksFirst},
		FailIteratedGreedy:     {"IteratedGreedy", iteratedGreedy},
	}
	arrivalRules = [...]rule{
		ArrivalNone:   {"ArrivalNone", nil},
		ArrivalGreedy: {"ArrivalGreedy", iteratedGreedy},
		ArrivalSteal:  {"ArrivalSteal", arrivalSteal},
	}
)

// lookup returns the row of table at id, or false when id is outside it.
func lookup(table []rule, id int) (rule, bool) {
	if id < 0 || id >= len(table) {
		return rule{}, false
	}
	return table[id], true
}

// ruleName renders id by its table name, or as "kind(id)" when id is
// outside the table.
func ruleName(table []rule, id int, kind string) string {
	if r, ok := lookup(table, id); ok {
		return r.name
	}
	return fmt.Sprintf("%s(%d)", kind, id)
}

// names lists a table's rule names in id order.
func names(table []rule) []string {
	out := make([]string, len(table))
	for i, r := range table {
		out[i] = r.name
	}
	return out
}

// rules resolves the policy's three functions. The simulator calls it
// once per Reset, so dispatch inside the event loop is a plain call.
func (p Policy) rules() (end, fail, arrival func(*Decision), err error) {
	e, okE := lookup(endRules[:], int(p.OnEnd))
	f, okF := lookup(failRules[:], int(p.OnFailure))
	a, okA := lookup(arrivalRules[:], int(p.OnArrival))
	if !okE || !okF || !okA {
		return nil, nil, nil, fmt.Errorf("core: policy %v uses a rule id outside the policy table", p)
	}
	return e.run, f.run, a.run, nil
}

// ArrivalRuleByName resolves an arrival rule name, "ArrivalNone"
// included. Scenario specs use it to attach an arrival rule to every
// policy of an online campaign.
func ArrivalRuleByName(name string) (ArrivalRule, bool) {
	for id, r := range arrivalRules {
		if r.name == name {
			return ArrivalRule(id), true
		}
	}
	return 0, false
}

// PolicyByName resolves a canonical policy name — "NoRedistribution" or
// any "<fail>-<end>" composition of rule names, optionally suffixed
// "+<arrival>" for online policies — exactly the strings Policy.String()
// produces.
func PolicyByName(name string) (Policy, bool) {
	base, arrName, hasArr := strings.Cut(name, "+")
	var ar ArrivalRule
	if hasArr {
		r, ok := ArrivalRuleByName(arrName)
		if !ok || r == ArrivalNone {
			// ArrivalNone is the zero value; Policy.String() never emits
			// a "+ArrivalNone" suffix, so it does not parse either.
			return Policy{}, false
		}
		ar = r
	}
	if base == "NoRedistribution" {
		return Policy{OnArrival: ar}, true
	}
	failName, endName, _ := strings.Cut(base, "-")
	for fr, f := range failRules {
		for er, e := range endRules {
			p := Policy{OnEnd: EndRule(er), OnFailure: FailRule(fr), OnArrival: ar}
			if f.name == failName && e.name == endName && (p.OnEnd != EndNone || p.OnFailure != FailNone) {
				return p, true
			}
		}
	}
	return Policy{}, false
}

// PolicyNames lists the canonical name of every offline policy — the
// cross product of the failure and end-of-task rules, None variants
// included — sorted lexicographically. Feeds the -list-policies flags.
func PolicyNames() []string {
	out := make([]string, 0, len(endRules)*len(failRules))
	for fr := range failRules {
		for er := range endRules {
			out = append(out, Policy{OnEnd: EndRule(er), OnFailure: FailRule(fr)}.String())
		}
	}
	sort.Strings(out)
	return out
}

// EndRules lists the end-of-task rule names in id order (EndNone first).
func EndRules() []string { return names(endRules[:]) }

// FailRules lists the failure rule names in id order (FailNone first).
func FailRules() []string { return names(failRules[:]) }

// ArrivalRules lists the arrival rule names in id order (ArrivalNone
// first). Any "<fail>-<end>" policy name may be suffixed with "+<rule>"
// for the non-None rules.
func ArrivalRules() []string { return names(arrivalRules[:]) }
