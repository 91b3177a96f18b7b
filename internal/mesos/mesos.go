// Package mesos simulates the resource-offer scheduling cycle of Apache
// Mesos (Hindman et al., NSDI 2011), which GinFlow's Mesos-based executor
// delegates agent deployment to (paper §IV-C).
//
// The master periodically offers the platform's free resources to the
// registered framework; the framework accepts slices of the offers and
// the master launches tasks on the corresponding nodes. GinFlow's
// framework launches one service agent per machine per offer round
// (§V-C), which is what produces the linearly-decreasing deployment time
// of Fig. 14: more machines per round means fewer rounds.
package mesos

import (
	"context"
	"fmt"

	"ginflow/internal/cluster"
)

// Offer advertises free capacity on one node for one round.
type Offer struct {
	Node      *cluster.Node
	FreeSlots int
}

// Launch is a framework's acceptance of (part of) an offer: start the
// task identified by TaskID on Node.
type Launch struct {
	Node   *cluster.Node
	TaskID string
}

// Framework is the scheduler-side callback contract (the subset of the
// Mesos framework API GinFlow needs). OnOffers inspects a round of
// offers and returns the launches to perform; Done reports whether the
// framework has nothing left to place.
type Framework interface {
	OnOffers(offers []Offer) []Launch
	Done() bool
}

// Config tunes the master.
type Config struct {
	// OfferInterval is the model-time between offer rounds (default 2.0,
	// matching the coarse cadence of a real master and sitting above the
	// host timer granularity at the default clock scale).
	OfferInterval float64
	// RegistrationDelay is the model-time cost of framework registration
	// (default 2.0).
	RegistrationDelay float64
	// MaxRounds bounds the offer loop (default 10000).
	MaxRounds int
}

func (c Config) withDefaults() Config {
	if c.OfferInterval <= 0 {
		c.OfferInterval = 2.0
	}
	if c.RegistrationDelay <= 0 {
		c.RegistrationDelay = 2.0
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 10000
	}
	return c
}

// Master drives offer rounds over a cluster.
type Master struct {
	cfg     Config
	cluster *cluster.Cluster

	rounds int
}

// NewMaster builds a master over the given cluster.
func NewMaster(c *cluster.Cluster, cfg Config) *Master {
	return &Master{cfg: cfg.withDefaults(), cluster: c}
}

// RunFramework registers the framework and drives offer rounds until the
// framework is done or the context is cancelled. It returns the launches
// performed, in launch order. Each accepted launch allocates a slot on
// its node; callers release slots when tasks finish.
func (m *Master) RunFramework(ctx context.Context, f Framework) ([]Launch, error) {
	clock := m.cluster.Clock()
	clock.Sleep(m.cfg.RegistrationDelay)

	var all []Launch
	for !f.Done() {
		if err := ctx.Err(); err != nil {
			return all, err
		}
		if m.rounds >= m.cfg.MaxRounds {
			return all, fmt.Errorf("mesos: offer loop exceeded %d rounds", m.cfg.MaxRounds)
		}
		m.rounds++
		clock.Sleep(m.cfg.OfferInterval)

		var offers []Offer
		for _, n := range m.cluster.Nodes() {
			free := n.Slots() - n.InUse()
			if free > 0 {
				offers = append(offers, Offer{Node: n, FreeSlots: free})
			}
		}
		if len(offers) == 0 {
			continue // fully booked this round; resources may free up
		}
		launches := f.OnOffers(offers)
		for _, l := range launches {
			if l.Node == nil {
				return all, fmt.Errorf("mesos: launch of %q names no node", l.TaskID)
			}
			if !l.Node.Allocate() {
				return all, fmt.Errorf("mesos: node %v over-committed launching %q", l.Node, l.TaskID)
			}
			all = append(all, l)
		}
	}
	return all, nil
}

// OnePerNodeFramework is GinFlow's deployment framework: it launches at
// most one pending task per offered machine per round (§V-C: "GinFlow,
// on top of Mesos, starts one SA per machine for each offer received").
type OnePerNodeFramework struct {
	pending []string
}

// NewOnePerNodeFramework queues the given task IDs for placement.
func NewOnePerNodeFramework(taskIDs []string) *OnePerNodeFramework {
	return &OnePerNodeFramework{pending: append([]string(nil), taskIDs...)}
}

// OnOffers accepts one task per offered node.
func (f *OnePerNodeFramework) OnOffers(offers []Offer) []Launch {
	var launches []Launch
	for _, o := range offers {
		if len(f.pending) == 0 {
			break
		}
		launches = append(launches, Launch{Node: o.Node, TaskID: f.pending[0]})
		f.pending = f.pending[1:]
	}
	return launches
}

// Done reports whether every task has been placed.
func (f *OnePerNodeFramework) Done() bool { return len(f.pending) == 0 }
