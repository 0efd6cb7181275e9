package core

import "cosched/internal/failure"

// RunWithEndRule runs in with end as the end-of-task rule and no failure
// or arrival rule. It is a test seam, not a policy: the Decision
// safeguard tests use it to drive rules that deliberately misbehave.
func RunWithEndRule(in Instance, end func(*Decision), src failure.Source, opt Options) (Result, error) {
	e := NewSimulator()
	if err := e.Reset(in, NoRedistribution, src, opt); err != nil {
		return Result{}, err
	}
	e.end = end
	return e.Run()
}
