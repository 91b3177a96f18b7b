// Package core implements the GinFlow engine: the paper's contribution
// assembled. A long-lived Manager owns the shared platform — the
// simulated cluster, the message broker and the executor — and
// multiplexes any number of concurrent workflow Sessions over it. Each
// session translates its workflow definition to HOCL, provisions service
// agents through the executor, wires them to the broker and a
// per-session shared space under a per-session topic namespace (so
// concurrent runs' molecules never cross), supervises the agents
// (respawning crashed agents with log replay, §IV-B), and reports the
// run: deployment time, execution time, failures, recoveries, triggered
// adaptations and results — the quantities the paper's evaluation (§V)
// is built from.
//
// Run is the single-shot compatibility path: it builds a manager,
// submits one session and waits — exactly the paper's one-workflow-per-
// invocation shape, expressed through the long-lived API.
package core

import (
	"context"
	"fmt"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/cluster"
	"ginflow/internal/executor"
	"ginflow/internal/failure"
	"ginflow/internal/hoclflow"
	"ginflow/internal/journal"
	"ginflow/internal/mq"
	"ginflow/internal/obs"
	"ginflow/internal/trace"
	"ginflow/internal/workflow"
)

// Config selects the run environment, mirroring the paper's CLI options
// ("executor, messaging framework, credentials, etc.", §IV-D). A Config
// parameterises a Manager; the ginflow façade builds one from
// functional options.
type Config struct {
	// Executor: ssh, mesos or centralized (default ssh).
	Executor executor.Kind
	// Broker: activemq or kafka (default activemq). Ignored by the
	// centralized executor.
	Broker mq.Kind
	// BrokerShards partitions the shared broker: each session's topic
	// namespace pins to one shard (mq.ShardKey), so concurrent sessions
	// spread over the shard set instead of contending on one middleware
	// occupancy. 0 takes mq.DefaultShards; 1 reproduces the unsharded
	// broker. Single runs are timing-identical at any shard count.
	BrokerShards int
	// Cluster sizes the simulated platform.
	Cluster cluster.Config
	// Listen, when non-empty, starts a network transport listener on
	// the given "host:port" address (":0" picks a free port; see
	// Manager.ListenerAddr). Worker processes (cmd/ginflow-node) join
	// it over TCP and sessions submitted while workers are connected
	// run their agents out-of-process. Requires a distributed executor:
	// the centralized manager has no broker for the listener to front.
	Listen string
	// SSH / Mesos / EC2 tune the executors (zero values take defaults).
	SSH   executor.SSH
	Mesos executor.Mesos
	EC2   executor.EC2

	// RestartDelay is the modelled cost of respawning a crashed agent
	// (default 2 model seconds).
	RestartDelay float64
	// MaxRecoveries bounds total respawns, a runaway guard (default 100000).
	MaxRecoveries int

	// Timeout bounds each session in real time (default 120 s);
	// overridable per submission with SubmitTimeout.
	Timeout time.Duration

	// CollectTrace records the enactment timeline (agent lifecycle,
	// invocations, transfers, adaptations, crashes) into Report.Events.
	// Live event streaming (Session.Events) works regardless.
	CollectTrace bool
	// TraceCap bounds each session's retained timeline to the newest N
	// events (ring buffer; drops are counted). 0 retains everything —
	// the historical behaviour.
	TraceCap int

	// MetricsAddr, when non-empty, serves the manager's observability
	// endpoints on the given "host:port" (":0" picks a free port; see
	// Manager.MetricsAddr): Prometheus text at /metrics, a JSON snapshot
	// at /metrics.json and net/http/pprof under /debug/pprof/.
	MetricsAddr string
	// Metrics selects the registry the manager's instruments resolve on
	// (nil takes the process-wide obs.Default()). A private registry
	// isolates one manager's model-time metrics — e.g. to compare two
	// same-seed virtual runs snapshot-for-snapshot.
	Metrics *obs.Registry

	// Journal configures the durable session journal (DESIGN.md
	// "Durability & recovery"): when Journal.Dir is set, every
	// distributed session writes through to an on-disk snapshot + status
	// log and an unfinished session survives a Manager process crash —
	// a fresh Manager over the same directory resumes it with Recover.
	Journal journal.Config

	// Chaos drives the deterministic fault schedule (DESIGN.md "Fault
	// model & chaos harness"): seeded, replayable §V-D agent crashes and
	// perturbation of message delivery, service invocation, agent
	// deployment, journal I/O, the socket and the space fold. The zero
	// value disables every boundary; a zero Seed takes Cluster.Seed.
	Chaos failure.ChaosConfig
	// Retry bounds the transient-fault retry loops run under Chaos
	// (invocation retries, deploy retries, journal write retries); the
	// zero value takes the failure package defaults.
	Retry failure.RetryConfig
}

func (c Config) withDefaults() Config {
	if c.Executor == "" {
		c.Executor = executor.KindSSH
	}
	if c.Broker == "" {
		c.Broker = mq.KindQueue
	}
	if c.RestartDelay <= 0 {
		c.RestartDelay = 2.0
	}
	if c.MaxRecoveries <= 0 {
		c.MaxRecoveries = 100000
	}
	if c.Timeout <= 0 {
		c.Timeout = 120 * time.Second
	}
	return c
}

// Report summarises one workflow run. Times are model seconds.
type Report struct {
	Workflow string
	Executor string
	Broker   string

	Tasks  int // main tasks
	Agents int // deployed agents (main + replacement)
	Nodes  int

	DeployTime float64
	ExecTime   float64
	TotalTime  float64

	Failures   int // observed injected crashes
	Recoveries int // respawned incarnations
	Messages   int64

	// DuplicatesSuppressed counts deliveries the agents' inbox sequence
	// protocol discarded as duplicates (chaos duplication, broker
	// redelivery, recovery replay overlap).
	DuplicatesSuppressed int64
	// EventsDropped counts enactment events lost on the session's lossy
	// live stream because a subscriber stopped draining.
	EventsDropped int64

	Adaptations []string // adaptation IDs that triggered
	Statuses    map[string]hoclflow.Status
	Results     map[string][]string // exit task -> rendered result atoms

	// Events is the enactment timeline (only when Config.CollectTrace or
	// SubmitTrace).
	Events []trace.Event
}

// String renders a compact single-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("%s [%s/%s] agents=%d deploy=%.2fs exec=%.2fs failures=%d recoveries=%d msgs=%d adaptations=%v",
		r.Workflow, r.Executor, r.Broker, r.Agents, r.DeployTime, r.ExecTime,
		r.Failures, r.Recoveries, r.Messages, r.Adaptations)
}

// Run executes one workflow on a throwaway environment and returns the
// run report: a compatibility wrapper over the long-lived Manager API
// (new manager, submit, wait).
func Run(ctx context.Context, def *workflow.Definition, services *agent.Registry, cfg Config) (*Report, error) {
	m, err := NewManager(cfg)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	s, err := m.Submit(ctx, def, services)
	if err != nil {
		return nil, err
	}
	return s.Wait(ctx)
}
