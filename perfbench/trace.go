package main

import (
	"sort"
	"sync/atomic"
	"time"

	"multilogvc/internal/obsv"
	"multilogvc/internal/vc"
)

// sampleEvery: only every sampleEvery-th Process call is timed. A clock
// read costs about as much as a Send, so timing all of a dense run's
// millions of sends would inflate the traced run by half.
const sampleEvery = 8

// probe accumulates what the program wrapper measures from outside the
// engine. A sampled Process call reads the clock at its start and end and
// around every Send, which splits the call into Send intervals and the
// program's own gaps between them. Times are summed over the vertex
// workers, so they are CPU-seconds of the worker pool, not wall time.
type probe struct {
	calls, sends                 atomic.Int64
	sampledCalls, sampledSends   atomic.Int64
	sampledSelfNs, sampledSendNs atomic.Int64
}

// sendSeconds estimates the total Send time from the sampled calls.
func (p *probe) sendSeconds() float64 {
	n := p.sampledSends.Load()
	if n == 0 {
		return 0
	}
	ns := p.sampledSendNs.Load() - n*int64(clockCost)
	return max(float64(ns), 0) / 1e9 * float64(p.sends.Load()) / float64(n)
}

// processSeconds estimates the total Process self time, Send excluded.
func (p *probe) processSeconds() float64 {
	calls := p.sampledCalls.Load()
	if calls == 0 {
		return 0
	}
	ns := p.sampledSelfNs.Load() - (calls+p.sampledSends.Load())*int64(clockCost)
	return max(float64(ns), 0) / 1e9 * float64(p.calls.Load()) / float64(calls)
}

// clockCost is what an empty timed interval measures: the share of clock
// reads that lands inside the interval they delimit. Every sampled
// interval carries one; the estimates subtract it. It is the lowest mean
// over a few rounds, so a preempted round does not inflate it.
var clockCost = func() time.Duration {
	const n = 1 << 16
	best := time.Duration(1<<63 - 1)
	for round := 0; round < 5; round++ {
		var sum time.Duration
		for i := 0; i < n; i++ {
			start := time.Now()
			sum += time.Since(start)
		}
		best = min(best, sum/n)
	}
	return best
}()

// timedProg samples the Process calls of the wrapped program.
type timedProg struct {
	vc.Program
	p *probe
}

func (t *timedProg) Process(ctx vc.Context, msgs []vc.Msg) {
	c := &timedCtx{Context: ctx, timed: t.p.calls.Add(1)%sampleEvery == 0}
	if c.timed {
		c.last = time.Now()
	}
	t.Program.Process(wrapContext(c), msgs)
	t.p.sends.Add(c.sends)
	if c.timed {
		c.selfNs += int64(time.Since(c.last))
		t.p.sampledCalls.Add(1)
		t.p.sampledSends.Add(c.sends)
		t.p.sampledSelfNs.Add(c.selfNs)
		t.p.sampledSendNs.Add(c.sendNs)
	}
}

type timedCtx struct {
	vc.Context
	timed          bool
	last           time.Time // end of the previous timed interval
	selfNs, sendNs int64
	sends          int64
}

func (c *timedCtx) Send(dst, data uint32) {
	c.sends++
	if !c.timed {
		c.Context.Send(dst, data)
		return
	}
	start := time.Now()
	c.selfNs += int64(start.Sub(c.last))
	c.Context.Send(dst, data)
	c.last = time.Now()
	c.sendNs += int64(c.last.Sub(start))
}

// laneProg and laneCtx are the methods vc.LaneProgram and vc.LaneContext
// add to their base interfaces, so they can be embedded beside the base
// wrapper without ambiguous selectors.
type laneProg interface {
	Lanes() int
	InitValueLane(v uint32, lane int, n uint32) uint32
}

type laneCtx interface {
	ValueLane(lane int) uint32
	SetValueLane(lane int, v uint32)
}

// wrapProgram returns p with Process timed into pr. The wrapper implements
// exactly the optional interfaces p implements (Combiner, AuxUser,
// LaneProgram), because the engine changes its behaviour on each of them
// and a traced run must compute what the untraced run computes.
func wrapProgram(p vc.Program, pr *probe) vc.Program {
	base := &timedProg{Program: p, p: pr}
	c, isComb := p.(vc.Combiner)
	a, isAux := p.(vc.AuxUser)
	l, isLane := p.(vc.LaneProgram)
	switch {
	case isComb && isAux && isLane:
		return struct {
			*timedProg
			vc.Combiner
			vc.AuxUser
			laneProg
		}{base, c, a, l}
	case isComb && isAux:
		return struct {
			*timedProg
			vc.Combiner
			vc.AuxUser
		}{base, c, a}
	case isComb && isLane:
		return struct {
			*timedProg
			vc.Combiner
			laneProg
		}{base, c, l}
	case isAux && isLane:
		return struct {
			*timedProg
			vc.AuxUser
			laneProg
		}{base, a, l}
	case isComb:
		return struct {
			*timedProg
			vc.Combiner
		}{base, c}
	case isAux:
		return struct {
			*timedProg
			vc.AuxUser
		}{base, a}
	case isLane:
		return struct {
			*timedProg
			laneProg
		}{base, l}
	}
	return base
}

// wrapContext exposes exactly the optional interfaces (LaneContext,
// Mutator) the engine's context implements, with Send timed.
func wrapContext(c *timedCtx) vc.Context {
	l, isLane := c.Context.(vc.LaneContext)
	m, isMut := c.Context.(vc.Mutator)
	switch {
	case isLane && isMut:
		return struct {
			*timedCtx
			laneCtx
			vc.Mutator
		}{c, l, m}
	case isLane:
		return struct {
			*timedCtx
			laneCtx
		}{c, l}
	case isMut:
		return struct {
			*timedCtx
			vc.Mutator
		}{c, m}
	}
	return c
}

// spanTotals sums the engine's trace spans by name. Self time is a span's
// duration minus the spans nested in it on the same timeline (tid 1 is the
// engine's strictly nested stage track). Spans on other timelines, such as
// the message log's evictions on tid 2, can overlap each other and are
// summed whole.
type spanTotals struct {
	self  map[string]time.Duration
	total map[string]time.Duration
	args  map[string]int64 // "<span>/<arg>" summed over spans
}

func sumSpans(evs []obsv.Event) spanTotals {
	st := spanTotals{
		self:  make(map[string]time.Duration),
		total: make(map[string]time.Duration),
		args:  make(map[string]int64),
	}
	var nested []obsv.Event
	for _, ev := range evs {
		st.total[ev.Name] += ev.Dur
		for _, a := range ev.Args {
			st.args[ev.Name+"/"+a.Key] += a.Val
		}
		if ev.Tid == 1 {
			nested = append(nested, ev)
		}
	}
	// Parents sort before their children: earlier start first, and at
	// equal starts the longer span first.
	sort.Slice(nested, func(i, j int) bool {
		if nested[i].Start != nested[j].Start {
			return nested[i].Start < nested[j].Start
		}
		return nested[i].Dur > nested[j].Dur
	})
	self := make([]time.Duration, len(nested))
	var stack []int
	for i, ev := range nested {
		self[i] = ev.Dur
		for len(stack) > 0 {
			p := nested[stack[len(stack)-1]]
			if ev.Start+ev.Dur <= p.Start+p.Dur {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			self[stack[len(stack)-1]] -= ev.Dur
		}
		stack = append(stack, i)
	}
	for i, ev := range nested {
		st.self[ev.Name] += self[i]
	}
	return st
}
