package router

import (
	"fmt"
	"math"
	"math/bits"
)

// portList is a dense, ascending-sorted set of port indices with O(log n)
// lookup and O(n) shift on update (cheap at router radix, ≤ ~36 ports).
// Iterating it visits exactly the member ports in the same order a full
// 0..numPorts scan would — ascending — which is what keeps activity-driven
// transmission bit-identical to the probing formulation: the event-wheel
// append order follows the port iteration order.
type portList struct {
	ports []int32
	in    []bool
}

func newPortList(n int) portList {
	return portList{ports: make([]int32, 0, n), in: make([]bool, n)}
}

// add inserts a port, keeping the list sorted; adding a member is a no-op.
func (l *portList) add(p int) {
	if l.in[p] {
		return
	}
	l.in[p] = true
	i := l.search(p)
	l.ports = append(l.ports, 0)
	copy(l.ports[i+1:], l.ports[i:])
	l.ports[i] = int32(p)
}

// search returns the insertion index of p (binary search).
func (l *portList) search(p int) int {
	lo, hi := 0, len(l.ports)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.ports[mid] < int32(p) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// vcMasks holds one input port's eligible and parked VCs, one bit per VC.
type vcMasks struct {
	elig, parked uint64
}

// setEligible marks the head of input VC (p, vc) for evaluation.
func (r *Router) setEligible(p, vc int) {
	r.masks[p].elig |= 1 << uint(vc)
	r.eligPorts[p>>6] |= 1 << uint(p&63)
}

// clearEligible removes input VC (p, vc) from evaluation.
func (r *Router) clearEligible(p, vc int) {
	m := &r.masks[p]
	if m.elig &^= 1 << uint(vc); m.elig == 0 {
		r.eligPorts[p>>6] &^= 1 << uint(p&63)
	}
}

// noteHead records that a packet with the given ready cycle became the head
// of input VC (p, vc): it is eligible at once if the router's clock has
// reached its ready cycle, otherwise it waits in notReady until Step does.
func (r *Router) noteHead(p, vc int, ready int64) {
	if ready <= r.clock {
		r.setEligible(p, vc)
		return
	}
	if len(r.notReady) == 0 || ready < r.nextReady {
		r.nextReady = ready
	}
	r.notReady = append(r.notReady, int32(p*r.vcStride+vc))
}

// promoteReady makes every listed head whose ready cycle has come eligible.
func (r *Router) promoteReady(now int64) {
	kept := r.notReady[:0]
	next := int64(math.MaxInt64)
	for _, flat := range r.notReady {
		p, vc := int(flat)/r.vcStride, int(flat)%r.vcStride
		ready := r.inputs[p].HeadReady(vc)
		if ready <= now {
			r.setEligible(p, vc)
			continue
		}
		kept = append(kept, flat)
		next = min(next, ready)
	}
	r.notReady = kept
	r.nextReady = next
}

// waitKeys returns the output resources (outKey slots) whose freed space can
// turn a failed request of the plan into a success; a key is -1 when the
// plan names fewer resources.
func (r *Router) waitKeys(plan *vcPlan) [2]int {
	switch {
	case plan.deliver:
		return [2]int{r.ejectKey(plan.outPort, plan.class), -1}
	case plan.escValid:
		return [2]int{plan.outPort, plan.escOutPort}
	default:
		return [2]int{plan.outPort, -1}
	}
}

// setWait adds (on) or removes a flat VC index from an output resource's
// wait set; negative keys are ignored.
func (r *Router) setWait(key, flat int, on bool) {
	if key < 0 {
		return
	}
	w := &r.waitSets[key*r.waitWords+flat>>6]
	if on {
		*w |= 1 << uint(flat&63)
	} else {
		*w &^= 1 << uint(flat&63)
	}
}

// park takes the head of input VC (p, vc), whose stable plan just failed, out
// of evaluation until a resource the plan names frees space.
func (r *Router) park(p, vc int, plan *vcPlan) {
	r.clearEligible(p, vc)
	r.masks[p].parked |= 1 << uint(vc)
	flat := p*r.vcStride + vc
	for _, key := range r.waitKeys(plan) {
		r.setWait(key, flat, true)
	}
}

// wake makes every head parked on an output resource eligible again. A wake
// that frees too little space costs one failed re-evaluation; a missed wake
// would change results.
func (r *Router) wake(key int) {
	ws := r.waitSets[key*r.waitWords : (key+1)*r.waitWords]
	for w := range ws {
		for ws[w] != 0 {
			flat := w<<6 | bits.TrailingZeros64(ws[w])
			for _, k := range r.waitKeys(&r.plans[flat]) {
				r.setWait(k, flat, false)
			}
			p, vc := flat/r.vcStride, flat%r.vcStride
			r.masks[p].parked &^= 1 << uint(vc)
			r.setEligible(p, vc)
		}
	}
}

// AuditActivity cross-checks the allocator's incremental state against a
// brute-force scan of every input VC and output/ejection buffer. It checks
// that
//   - every occupied VC's head is in exactly one of the not-ready list, the
//     eligible mask and the parked mask, and empty VCs in none;
//   - the heads on the not-ready list are ready only after the router's
//     clock, nextReady is their minimum, and every other head is ready at
//     the clock;
//   - eligPorts marks exactly the ports with an eligible VC;
//   - every parked head has a current stable plan, and the wait sets hold
//     exactly the parked heads under each resource their plans name;
//   - no wake was missed: re-evaluating a parked head fails (a failed
//     evaluation has no side effect, so the check does not perturb state);
//   - the xmit list covers every staged packet.
//
// Tests and the fuzz target call it after every mutation; the simulator never
// does (it is O(ports × VCs)).
func (r *Router) AuditActivity() error {
	onList := make(map[int]bool, len(r.notReady))
	next := int64(math.MaxInt64)
	for _, flat := range r.notReady {
		f := int(flat)
		p, vc := f/r.vcStride, f%r.vcStride
		if onList[f] {
			return fmt.Errorf("router %d port %d VC %d: listed twice as not ready", r.id, p, vc)
		}
		if vc >= r.inputs[p].NumVCs() || r.inputs[p].QueueLen(vc) == 0 {
			return fmt.Errorf("router %d port %d VC %d: listed as not ready but holds no packet", r.id, p, vc)
		}
		ready := r.inputs[p].HeadReady(vc)
		if ready <= r.clock {
			return fmt.Errorf("router %d port %d VC %d: listed as not ready at cycle %d, ready %d", r.id, p, vc, r.clock, ready)
		}
		onList[f] = true
		next = min(next, ready)
	}
	if len(r.notReady) > 0 && r.nextReady != next {
		return fmt.Errorf("router %d: nextReady=%d, listed minimum %d", r.id, r.nextReady, next)
	}

	want := make([]uint64, len(r.waitSets))
	for p := 0; p < r.numPorts; p++ {
		in := r.inputs[p]
		m := r.masks[p]
		if m.elig&m.parked != 0 {
			return fmt.Errorf("router %d port %d: VCs %#x both eligible and parked", r.id, p, m.elig&m.parked)
		}
		if (m.elig|m.parked)>>uint(in.NumVCs()) != 0 {
			return fmt.Errorf("router %d port %d: masks %+v name VCs beyond %d", r.id, p, m, in.NumVCs())
		}
		if got := r.eligPorts[p>>6]>>uint(p&63)&1 == 1; got != (m.elig != 0) {
			return fmt.Errorf("router %d port %d: eligPorts=%v, eligible mask %#x", r.id, p, got, m.elig)
		}
		for vc := 0; vc < in.NumVCs(); vc++ {
			f := p*r.vcStride + vc
			bit := uint64(1) << uint(vc)
			listed := onList[f]
			states := 0
			for _, on := range []bool{listed, m.elig&bit != 0, m.parked&bit != 0} {
				if on {
					states++
				}
			}
			if in.QueueLen(vc) == 0 {
				if states != 0 {
					return fmt.Errorf("router %d port %d VC %d: empty VC tracked (listed=%v, masks %+v)", r.id, p, vc, listed, m)
				}
				continue
			}
			if states != 1 {
				return fmt.Errorf("router %d port %d VC %d: head in %d states (listed=%v, masks %+v)", r.id, p, vc, states, listed, m)
			}
			if !listed && in.HeadReady(vc) > r.clock {
				return fmt.Errorf("router %d port %d VC %d: head ready at %d tracked as ready at cycle %d", r.id, p, vc, in.HeadReady(vc), r.clock)
			}
			if m.parked&bit == 0 {
				continue
			}
			ref := in.Head(vc, r.clock)
			hdr := r.store.Hdr(ref)
			plan := &r.plans[f]
			if plan.ref != ref || plan.id != hdr.ID || !plan.stable {
				return fmt.Errorf("router %d port %d VC %d: parked head without a current stable plan", r.id, p, vc)
			}
			if _, ok := r.requestFromPlan(plan, p, vc, ref, int(hdr.Size)); ok {
				return fmt.Errorf("router %d port %d VC %d: parked head can request (missed wake)", r.id, p, vc)
			}
			for _, key := range r.waitKeys(plan) {
				if key >= 0 {
					want[key*r.waitWords+f>>6] |= 1 << uint(f&63)
				}
			}
		}
	}
	for i := range want {
		if r.waitSets[i] != want[i] {
			key, w := i/r.waitWords, i%r.waitWords
			return fmt.Errorf("router %d: wait set of resource %d word %d = %#x, parked heads give %#x", r.id, key, w, r.waitSets[i], want[i])
		}
	}
	return r.auditXmit()
}

// auditXmit checks the transmit list. It may conservatively hold ports that
// already drained (they are pruned lazily by the next transmit pass), but it
// must be sorted, consistent with its membership flags, and cover every
// staged packet.
func (r *Router) auditXmit() error {
	xi := 0
	for p := 0; p < r.numPorts; p++ {
		staged := 0
		if r.outputs[p] != nil {
			staged = r.outputs[p].Len()
		}
		for _, e := range r.eject[p] {
			staged += e.Len()
		}
		if staged > 0 && !r.xmit.in[p] {
			return fmt.Errorf("router %d port %d: %d staged packets but not in xmit list", r.id, p, staged)
		}
		if r.xmit.in[p] {
			if xi >= len(r.xmit.ports) || r.xmit.ports[xi] != int32(p) {
				return fmt.Errorf("router %d: xmit list %v inconsistent with membership at port %d", r.id, r.xmit.ports, p)
			}
			xi++
		}
	}
	if xi != len(r.xmit.ports) {
		return fmt.Errorf("router %d: xmit list %v has %d extra entries", r.id, r.xmit.ports, len(r.xmit.ports)-xi)
	}
	return nil
}
