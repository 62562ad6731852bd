package core

import (
	"meg/internal/bitset"
)

// FloodParsimonious runs the parsimonious (amnesiac) flooding variant
// studied by Baumann, Crescenzi and Fraigniaud on edge-Markovian graphs
// (the paper's reference [4]): a node transmits only for the first
// activeRounds rounds after becoming informed, then falls silent
// forever (it stays informed but stops forwarding). activeRounds = 1 is
// the classic "forward once" protocol; activeRounds ≥ cap recovers
// ordinary flooding.
//
// On a static connected graph parsimonious flooding always completes
// (the frontier carries the message), but on an evolving graph a silent
// informed set can strand the process: a node's neighbors at its active
// time may all be informed already, while future snapshots would have
// offered new ones. Comparing its completion time and success rate
// against ordinary flooding measures how much re-transmission the
// dynamics actually needs.
//
// Like Flood, it does not Reset d, and the chain advances only between
// evaluated rounds: on return d is positioned at the last evaluated
// snapshot.
func FloodParsimonious(d Dynamics, source, activeRounds, maxRounds int) FloodResult {
	n := d.N()
	if source < 0 || source >= n {
		panic("core: flood source out of range")
	}
	if maxRounds <= 0 {
		panic("core: maxRounds must be positive")
	}
	if activeRounds <= 0 {
		panic("core: activeRounds must be positive")
	}
	informed := bitset.New(n)
	informed.Add(source)
	res := FloodResult{
		Source:     source,
		Trajectory: make([]int, 1, 64),
		Informed:   informed,
	}
	res.Trajectory[0] = 1
	if n == 1 {
		res.Completed = true
		return res
	}

	type activeNode struct {
		id        int32
		remaining int32
	}
	active := make([]activeNode, 1, n)
	active[0] = activeNode{int32(source), int32(activeRounds)}
	newly := make([]int32, 0, 64)
	count := 1

	for t := 0; t < maxRounds; t++ {
		g := d.Graph()
		newly = newly[:0]
		for _, a := range active {
			for _, v := range g.Neighbors(int(a.id)) {
				if !informed.Contains(int(v)) {
					informed.Add(int(v))
					newly = append(newly, v)
				}
			}
		}
		// Age the active set and retire exhausted transmitters.
		live := active[:0]
		for _, a := range active {
			a.remaining--
			if a.remaining > 0 {
				live = append(live, a)
			}
		}
		active = live
		for _, v := range newly {
			active = append(active, activeNode{v, int32(activeRounds)})
		}
		count += len(newly)
		res.Trajectory = append(res.Trajectory, count)
		if count == n {
			res.Rounds = t + 1
			res.Completed = true
			return res
		}
		if len(active) == 0 {
			// Every informed node has exhausted its budget: the process
			// is dead.
			res.Rounds = t + 1
			return res
		}
		if t+1 < maxRounds {
			d.Step()
		}
	}
	res.Rounds = maxRounds
	return res
}
