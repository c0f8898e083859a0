package router

import (
	"testing"

	"flexvc/internal/buffer"
	"flexvc/internal/core"
	"flexvc/internal/packet"
	"flexvc/internal/routing"
	"flexvc/internal/topology"
)

// benchEnv is an environment with infinite downstream capacity: arrivals and
// credits are resolved immediately, so the router under benchmark never
// blocks on flow control and every Step measures real allocation work.
type benchEnv struct {
	downstream []*buffer.InputBuffer // by output port, nil for terminal
}

func (e *benchEnv) DownstreamInput(r packet.RouterID, port int) *buffer.InputBuffer {
	return e.downstream[port]
}

func (e *benchEnv) ScheduleArrival(delay int64, to packet.RouterID, port, vc int, ref packet.Ref, kind packet.RouteKind) {
}

func (e *benchEnv) ScheduleCredit(delay int64, buf *buffer.InputBuffer, vc, size int, kind packet.RouteKind, up packet.RouterID, upPort int) {
	buf.ReleaseCredit(vc, size, kind)
}

func (e *benchEnv) ScheduleDelivery(delay int64, ref packet.Ref) {}

func buildBenchRouter(b *testing.B) (*Router, *benchEnv, *topology.Dragonfly, *packet.Store) {
	b.Helper()
	topo, err := topology.NewDragonfly(2, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	store := packet.NewStore()
	scheme := core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(4, 2), Selection: core.JSQ}
	rt, err := New(0, topo, scheme, routing.NewMinimal(topo), testParams(1, store), 7)
	if err != nil {
		b.Fatal(err)
	}
	env := &benchEnv{downstream: make([]*buffer.InputBuffer, topo.Radix())}
	for p := 0; p < topo.Radix(); p++ {
		kind := topo.PortKind(0, p)
		if kind == topology.Terminal {
			continue
		}
		env.downstream[p] = buffer.NewInputBuffer(buffer.StaticConfig(scheme.VCs.TotalOf(kind), 1<<20))
	}
	rt.SetEnv(env)
	return rt, env, topo, store
}

// drainDownstream releases every committed phit of the synthetic downstream
// buffers so the router never stalls on credits between refills, waking the
// router through its credit hook as the simulator does.
func drainDownstream(rt *Router, env *benchEnv) {
	for p, d := range env.downstream {
		if d == nil {
			continue
		}
		for vc := 0; vc < d.NumVCs(); vc++ {
			if c := d.CommittedOf(vc); c > 0 {
				d.ReleaseCredit(vc, c, packet.Minimal)
			}
		}
		rt.CreditReturned(p)
	}
}

// BenchmarkRouterStepBusy measures Router.Step with traffic flowing: the
// injection VCs are topped up with forwardable packets whenever they drain.
func BenchmarkRouterStepBusy(b *testing.B) {
	rt, env, topo, store := buildBenchRouter(b)
	dst := topo.NodeAt(topo.RouterInGroup(1, 0), 0)
	refill := func(now int64) {
		inj := rt.Input(0)
		for vc := 0; vc < inj.NumVCs(); vc++ {
			for inj.FreeFor(vc) >= 8 && inj.QueueLen(vc) < 4 {
				ref := store.Alloc(1, topo.NodeAt(0, 0), dst, 8, packet.Request, now)
				hdr := store.Hdr(ref)
				hdr.SrcRouter = 0
				hdr.DstRouter = topo.RouterOfNode(dst)
				inj.Reserve(vc, int(hdr.Size), packet.Minimal)
				rt.EnqueueArrival(0, vc, ref, now, packet.Minimal)
			}
		}
	}
	refill(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := int64(i)
		rt.Step(now)
		if rt.ResidentPackets() == 0 {
			b.StopTimer()
			drainDownstream(rt, env)
			refill(now)
			b.StartTimer()
		}
	}
}

// BenchmarkRouterStepBlocked measures Router.Step when every head is blocked
// on full downstream VCs: each iteration returns a one-phit credit, too
// little for a packet, so the woken heads are re-evaluated once, fail and
// park again. This is the saturated regime the wake-driven allocator targets.
func BenchmarkRouterStepBlocked(b *testing.B) {
	rt, env, topo, store := buildBenchRouter(b)
	for _, d := range env.downstream {
		if d == nil {
			continue
		}
		for vc := 0; vc < d.NumVCs(); vc++ {
			d.Reserve(vc, d.FreeFor(vc), packet.Minimal)
		}
	}
	dst := topo.NodeAt(topo.RouterInGroup(1, 0), 0)
	port := topo.NextMinimalPort(0, topo.RouterOfNode(dst))
	inj := rt.Input(0)
	for vc := 0; vc < inj.NumVCs(); vc++ {
		for inj.FreeFor(vc) >= 8 {
			ref := store.Alloc(1, topo.NodeAt(0, 0), dst, 8, packet.Request, 0)
			hdr := store.Hdr(ref)
			hdr.SrcRouter = 0
			hdr.DstRouter = topo.RouterOfNode(dst)
			inj.Reserve(vc, 8, packet.Minimal)
			rt.EnqueueArrival(0, vc, ref, 0, packet.Minimal)
		}
	}
	down := env.downstream[port]
	rt.Step(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		down.ReleaseCredit(0, 1, packet.Minimal)
		rt.CreditReturned(port)
		rt.Step(int64(i))
		down.Reserve(0, 1, packet.Minimal)
	}
	b.StopTimer()
	if rt.Grants() != 0 {
		b.Fatalf("a blocked head was granted (%d grants)", rt.Grants())
	}
}

// BenchmarkVCActivity measures the incremental eligibility bookkeeping on the
// enqueue/dequeue path: a new ready head sets its VC's bit in the port's
// eligible mask and the port's bit in the eligible-port set, and its removal
// clears both. This is what the simulator pays per packet movement in
// exchange for the allocator visiting eligible VCs only; the gate pins it
// allocation-free.
func BenchmarkVCActivity(b *testing.B) {
	rt, _, topo, _ := buildBenchRouter(b)
	// Churn across several ports so port bits flip at different positions.
	var ports [4]int
	idx := 0
	for p := 0; p < topo.Radix() && idx < len(ports); p += 2 {
		ports[idx] = p
		idx++
	}
	rt.clock = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ports[i&3]
		rt.noteHead(p, i&1, 0)
		rt.clearEligible(p, i&1)
	}
}

// BenchmarkRouterStepIdle measures Step on a router with no resident packets:
// the pure scan overhead the simulator pays for every idle router each cycle.
func BenchmarkRouterStepIdle(b *testing.B) {
	rt, _, _, _ := buildBenchRouter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Step(int64(i))
	}
}
