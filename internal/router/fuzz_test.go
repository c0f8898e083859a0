package router

import (
	"testing"

	"flexvc/internal/packet"
	"flexvc/internal/topology"
)

// FuzzVCActivity drives a router through arbitrary interleavings of the
// operations that change what its allocator may do — enqueue (injection and
// link arrivals, some not ready for a few cycles), step (grants, parking,
// output and ejection pops) and downstream credit returns through the fake
// environment's credit hook, one VC or all at once — and after every
// operation checks the allocator's incremental state against the brute-force
// scan (AuditActivity): eligibility, the not-ready list, the wait sets of
// parked heads, and that no parked head could request (no missed wake). The
// state must track buffer state exactly under every interleaving, not just
// the ones the simulator happens to emit.
func FuzzVCActivity(f *testing.F) {
	f.Add([]byte{0, 2, 1, 2, 3, 0, 0, 2, 2, 2, 1, 3, 2, 2})
	f.Add([]byte{1, 1, 1, 2, 2, 2, 2, 3, 1, 2})
	f.Add([]byte{0, 4, 8, 12, 2, 2, 2, 2, 2, 2, 3})
	f.Add([]byte{5, 10, 15, 20, 25, 2, 2, 2, 2, 4, 2, 9, 2, 2, 14, 2, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		rt, env, topo, store := buildRouter(t)
		store.EnablePoison()

		// The non-terminal input ports a fuzzed arrival may land on.
		var linkPorts []int
		for p := 0; p < topo.Radix(); p++ {
			if topo.PortKind(0, p) != topology.Terminal {
				linkPorts = append(linkPorts, p)
			}
		}
		// Deliveries and departures free no slots here (the fake env retains
		// the refs), so cap the packet population to keep iterations bounded.
		const maxPackets = 64
		var id uint64
		now := int64(0)
		enqueue := func(port, vc int) {
			if id >= maxPackets {
				return
			}
			inb := rt.Input(port)
			vc %= inb.NumVCs()
			if !inb.Reserve(vc, 8, packet.Minimal) {
				return
			}
			id++
			// Alternate local and remote destinations so both the ejection
			// and the forwarding paths run.
			dst := topo.NodeAt(0, int(id)%2)
			if id%3 == 0 {
				dst = topo.NodeAt(topo.RouterInGroup(1, int(id)%4), 0)
			}
			ref := store.Alloc(id, topo.NodeAt(0, 0), dst, 8, packet.Request, now)
			hdr := store.Hdr(ref)
			hdr.SrcRouter = 0
			hdr.DstRouter = topo.RouterOfNode(dst)
			if port != 0 {
				store.Route(ref).InputVC = int32(vc)
			}
			// Some heads only become ready a few cycles on.
			rt.EnqueueArrival(port, vc, ref, now+int64(id%4), packet.Minimal)
		}
		for i, op := range ops {
			arg := int(op) / 5
			switch op % 5 {
			case 0: // inject on the terminal port
				enqueue(0, arg)
			case 1: // arrival on a link port
				if len(linkPorts) > 0 {
					enqueue(linkPorts[arg%len(linkPorts)], arg/len(linkPorts))
				}
			case 2: // advance one cycle
				rt.Step(now)
				now++
			case 3: // downstream drains: return every committed credit
				for p, d := range env.downstream {
					for vc := 0; vc < d.NumVCs(); vc++ {
						env.returnCredits(rt, p, vc)
					}
				}
			case 4: // one downstream VC returns its credits
				if len(linkPorts) > 0 {
					p := linkPorts[arg%len(linkPorts)]
					env.returnCredits(rt, p, arg/len(linkPorts)%env.downstream[p].NumVCs())
				}
			}
			if err := rt.AuditActivity(); err != nil {
				t.Fatalf("op %d (byte %d): %v", i, op, err)
			}
		}
	})
}
