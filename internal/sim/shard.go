package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"flexvc/internal/buffer"
	"flexvc/internal/config"
	"flexvc/internal/packet"
	"flexvc/internal/topology"
)

// This file implements intra-replication parallelism: the router-stepping
// phase of Network.Step runs across several goroutines, each owning a
// contiguous block ("shard") of router IDs, with bit-identical results.
//
// Why the stepping phase parallelizes exactly
//
// Within one cycle, Step is a sequence of phases: processEvents, inject and
// pb.Update run serially; only the router-stepping pass is sharded. During
// that pass the mutable state a router touches is disjoint per router except
// for one structure:
//
//   - Input-queue state (Head/Dequeue) of a router's own input buffers is
//     touched only by that router; Enqueue happens in the serial phases.
//   - Credit counters of an input buffer are written (Reserve, at grant time)
//     and read (FreeFor, congestion probes) only by the unique upstream
//     neighbor router of that buffer's link — links are point-to-point, so
//     writer and reader are the same router. Credit returns (ReleaseCredit)
//     happen in the serial event phase, and so does the wake they send the
//     upstream router (Router.CreditReturned).
//   - PAR/PB congestion probes read only the prober's own output ports'
//     downstream buffers, i.e. exactly the counters that router alone writes.
//     The PB saturation table is published in pb.Update, which is serial.
//   - The per-router PRNG, allocation scratch and VC-plan caches are private;
//     the routing algorithms, topology tables and core.Manager are immutable
//     during a run (verified: routing is stateless per packet, route tables
//     are precomputed before stepping begins).
//
// The single shared structure is the event wheel: routers schedule arrivals,
// credit returns and deliveries, and a wheel slot's append order determines
// the order processEvents later replays them, which in turn fixes FIFO
// enqueue order and therefore results. The serial loop appends in ascending
// router-ID order. Sharding preserves that order without locks by buffering:
// each shard's Schedule* calls append to a private pending list (routers
// inside a shard are stepped in ascending ID order, so the list is ordered),
// and after all shards join, the lists are flushed into the wheel in
// ascending shard order — shards are contiguous ascending ID blocks, so the
// wheel sees exactly the serial append order. Hence sharded and serial runs
// are bit-identical by construction, not just in expectation; the
// equivalence tests in shard_test.go and the recorded-experiment
// verification (`figures check`) hold that line.

// shardState is one contiguous block of routers plus its private buffer of
// events scheduled while stepping the block. It implements router.Env for the
// routers of its block: downstream lookups delegate to the network's
// immutable wiring cache, Schedule* calls are buffered until the flush phase.
type shardState struct {
	n      *Network
	lo, hi int // router ID range [lo, hi)
	pend   []pendEvent
}

// pendEvent is one buffered wheel insertion: the event plus the delay it was
// scheduled with. The absolute due cycle is resolved at flush time (Network.now
// is frozen during the stepping phase, so buffering does not shift timing).
type pendEvent struct {
	delay int64
	ev    event
}

// DownstreamInput implements router.Env (immutable wiring, safe to share).
func (s *shardState) DownstreamInput(r packet.RouterID, port int) *buffer.InputBuffer {
	return s.n.downInput[r][port]
}

// ScheduleArrival implements router.Env, buffering into the shard.
func (s *shardState) ScheduleArrival(delay int64, to packet.RouterID, port, vc int, ref packet.Ref, kind packet.RouteKind) {
	s.pend = append(s.pend, pendEvent{delay, event{kind: evArrival, router: to, port: port, vc: vc, ref: ref, rkind: kind}})
}

// ScheduleCredit implements router.Env, buffering into the shard.
func (s *shardState) ScheduleCredit(delay int64, buf *buffer.InputBuffer, vc, size int, kind packet.RouteKind, up packet.RouterID, upPort int) {
	s.pend = append(s.pend, pendEvent{delay, event{kind: evCredit, buf: buf, vc: vc, size: size, rkind: kind, router: up, port: upPort}})
}

// ScheduleDelivery implements router.Env, buffering into the shard.
func (s *shardState) ScheduleDelivery(delay int64, ref packet.Ref) {
	s.pend = append(s.pend, pendEvent{delay, event{kind: evDelivery, ref: ref}})
}

// flush replays the shard's buffered events into the wheel, preserving their
// order. Called serially, in ascending shard order, after every shard joined.
func (s *shardState) flush() {
	for i := range s.pend {
		s.n.wheel.schedule(s.n.now, s.pend[i].delay, s.pend[i].ev)
	}
	s.pend = s.pend[:0]
}

// autoShardMinRouters is the minimum number of routers per shard the auto
// heuristic (Shards = 0) aims for: below ~32 routers of work per goroutine
// the per-cycle fork/join overhead outweighs the parallelism, so small
// networks stay serial and medium/paper scales fan out.
const autoShardMinRouters = 32

// shardPlan resolves the configured shard count against a topology: the
// effective count and the router-block alignment. Shards are contiguous
// ascending router-ID blocks; on the Dragonfly the blocks align to whole
// groups (router IDs are group-major), which keeps the all-to-all local
// traffic of a group inside one shard. An explicit Shards >= 2 is honoured up
// to the number of alignment units; Shards == 0 derives a count from
// GOMAXPROCS, capped so every shard keeps at least autoShardMinRouters
// routers of work.
func shardPlan(cfg config.Config, topo topology.Topology) (count, align int) {
	align = 1
	if df, ok := topo.(*topology.Dragonfly); ok {
		align = topo.NumRouters() / df.NumGroups() // A routers per group
	}
	units := topo.NumRouters() / align
	s := cfg.Shards
	if s == 0 {
		s = runtime.GOMAXPROCS(0)
		if limit := topo.NumRouters() / autoShardMinRouters; s > limit {
			s = limit
		}
	}
	if s > units {
		s = units
	}
	if s < 1 {
		s = 1
	}
	return s, align
}

// buildShards wires the sharded stepping path: it partitions the routers into
// `count` contiguous blocks of whole alignment units (sizes differ by at most
// one unit) and re-points each router's environment at its shard so Schedule*
// calls are buffered per shard. With count <= 1 it leaves the serial path
// untouched: routers keep the Network itself as their environment and Step
// takes the exact pre-sharding code path.
func (n *Network) buildShards(count, align int, sc *scratch) {
	if count <= 1 {
		return
	}
	units := len(n.routers) / align
	n.shards = make([]*shardState, count)
	lo := 0
	for i := 0; i < count; i++ {
		u := units / count
		if i < units%count {
			u++
		}
		hi := lo + u*align
		if i == count-1 {
			hi = len(n.routers)
		}
		sh := &shardState{n: n, lo: lo, hi: hi}
		if sc != nil {
			sh.pend = sc.takePend()
		}
		n.shards[i] = sh
		for r := lo; r < hi; r++ {
			n.routers[r].SetEnv(sh)
		}
		lo = hi
	}
	n.shardSlots = count
}

// Shards reports how many shards the network's cycle loop uses (1 = serial).
func (n *Network) Shards() int {
	if len(n.shards) == 0 {
		return 1
	}
	return len(n.shards)
}

// acquireShardSlots borrows up to shards-1 extra tokens from the process-wide
// worker budget (non-blocking — the replication already holds one token, so
// blocking here could deadlock a fully subscribed budget) and sets the number
// of goroutines the stepping phase may use to 1 + the extras obtained. It
// returns the release function. Results do not depend on how many slots were
// obtained: fewer slots only means one goroutine steps several shards in
// sequence, and the flush order is fixed by shard index either way.
func (n *Network) acquireShardSlots() func() {
	if len(n.shards) <= 1 {
		return func() {}
	}
	releases := make([]func(), 0, len(n.shards)-1)
	for i := 1; i < len(n.shards); i++ {
		rel, ok := tryAcquireWorker()
		if !ok {
			break
		}
		releases = append(releases, rel)
	}
	n.shardSlots = 1 + len(releases)
	return func() {
		n.shardSlots = len(n.shards)
		for _, rel := range releases {
			rel()
		}
	}
}

// stepSharded runs the router-stepping phase across the shards and merges the
// buffered events back into the wheel in ascending shard order. Shard indexes
// are claimed from an atomic counter: the caller's goroutine participates, and
// up to shardSlots-1 helpers join, so a starved worker budget degrades to the
// caller stepping every shard itself — same results, less parallelism.
//
// With a metrics registry attached the cycle loop runs stepShardedTimed (in
// metrics.go) instead; this body stays closure-free so the metrics-off path
// keeps its exact pre-observability instruction stream and allocation count
// (gated by BenchmarkSmokeSweepSharded).
func (n *Network) stepSharded() {
	workers := n.shardSlots
	if workers > len(n.shards) {
		workers = len(n.shards)
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(n.shards) {
					return
				}
				sh := n.shards[i]
				n.stepBlock(sh.lo, sh.hi)
			}
		}()
	}
	for {
		i := int(next.Add(1)) - 1
		if i >= len(n.shards) {
			break
		}
		sh := n.shards[i]
		n.stepBlock(sh.lo, sh.hi)
	}
	wg.Wait()
	for _, sh := range n.shards {
		sh.flush()
	}
}
