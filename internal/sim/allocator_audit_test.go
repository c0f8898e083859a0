package sim

import (
	"testing"

	"flexvc/internal/buffer"
	"flexvc/internal/config"
	"flexvc/internal/core"
	"flexvc/internal/routing"
)

// TestAllocatorAuditInNetwork runs saturated networks and, after every cycle,
// checks every router's wake-driven allocator state with AuditActivity. Here
// the wakes come from the real wiring: output and ejection pops inside the
// routers and credit returns replayed by the event phase, which must name the
// right upstream router and port. A wrong or missing wake leaves a parked head
// that could request, which the audit reports. The cases cover escape plans
// (opportunistic Valiant), uncommitted adaptive heads (PAR), two ejection
// classes (reactive traffic) and a shared DAMQ pool.
func TestAllocatorAuditInNetwork(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*config.Config)
	}{
		{"flexvc MIN 4/2 UN", func(c *config.Config) {
			c.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(4, 2), Selection: core.JSQ}
		}},
		{"flexvc VAL 3/2 ADV", func(c *config.Config) {
			c.Traffic = config.TrafficAdversarial
			c.Routing = routing.VAL
			c.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(3, 2), Selection: core.RandomVC}
		}},
		{"flexvc PAR 5/2 UN", func(c *config.Config) {
			c.Routing = routing.PAR
			c.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(5, 2), Selection: core.JSQ}
		}},
		{"flexvc reactive UN 3/2+2/1", func(c *config.Config) {
			c.Reactive = true
			c.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.TwoClass(3, 2, 2, 1), Selection: core.HighestVC}
		}},
		{"damq MIN 2/1 bursty", func(c *config.Config) {
			c.Traffic = config.TrafficBursty
			c.BufferOrg = buffer.DAMQ
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := config.Small()
			cfg.Load = 1.0
			cfg.WarmupCycles = 200
			cfg.MeasureCycles = 600
			c.mut(&cfg)
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for cyc := 0; cyc < 1500; cyc++ {
				n.RunCycles(1)
				for _, r := range n.routers {
					if err := r.AuditActivity(); err != nil {
						t.Fatalf("cycle %d: %v", cyc, err)
					}
				}
			}
			var grants int64
			for _, r := range n.routers {
				grants += r.Grants()
			}
			if grants == 0 {
				t.Fatal("no grant in 1500 saturated cycles; the audit is vacuous")
			}
		})
	}
}
