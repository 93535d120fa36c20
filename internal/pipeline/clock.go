package pipeline

import "time"

// stage names one timed part of a stepped cycle.
type stage int

const (
	stageWriteback stage = iota
	stageCommit
	stageROB // rob.Tick, iq.Tick and the policy snapshots
	stageIssue
	stageDispatch
	stageFetch
	stageSkip // advance: nextInterestingCycle and skipTo
	numStages
)

// stageClock accumulates wall time per stage. Only tests set CPU.clock
// (BenchmarkStages); a nil clock costs each stage boundary one nil check.
type stageClock struct {
	ns   [numStages]time.Duration
	laps [numStages]int64
	last time.Time
}

// lap charges the time since the previous lap to st.
func (s *stageClock) lap(st stage) {
	now := time.Now()
	s.ns[st] += now.Sub(s.last)
	s.laps[st]++
	s.last = now
}

// lap charges the time since the previous stage boundary to st when the
// stage clock is on.
func (c *CPU) lap(st stage) {
	if c.clock != nil {
		c.clock.lap(st)
	}
}
