// resilience: the paper's §IV-B/§V-D failure-recovery machinery in
// action. Agents crash with probability p a time T into their service
// invocation; the supervisor respawns each crashed agent, and the new
// incarnation rebuilds its state by replaying its inbox from the
// Kafka-like log — re-invoking its idempotent service along the way.
// Duplicate results are absorbed by the one-shot gw rules, so no cascade
// of re-executions occurs. The same run on the volatile ActiveMQ-like
// broker would stall: in-flight results die with their consumer.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ginflow"
)

func main() {
	const (
		p = 0.5 // crash probability per service invocation
		t = 15  // crash delay (model seconds into the service)
	)

	def := ginflow.Montage()
	services := ginflow.NewServiceRegistry()
	ginflow.RegisterMontageServices(services)

	fmt.Printf("injecting failures: p=%.1f, T=%.0fs (paper §V-D methodology)\n", float64(p), float64(t))
	report, err := ginflow.Run(context.Background(), def, services, ginflow.Config{
		Executor: ginflow.ExecutorMesos,
		Broker:   ginflow.BrokerKafka, // recovery needs the persisted log
		Cluster:  ginflow.ClusterConfig{Nodes: 25},
		Chaos:    ginflow.ChaosConfig{AgentCrashP: p, AgentCrashAfter: t},
		Timeout:  5 * time.Minute,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(report)
	fmt.Printf("failures observed:  %d (expected ≈ p/(1-p)·N_T)\n", report.Failures)
	fmt.Printf("agents recovered:   %d — every crash was replayed back to life\n", report.Recoveries)
	fmt.Printf("mosaic still built: %v\n", report.Results["MJPEG"])
	fmt.Printf("execution time:     %.0f model seconds (vs ≈550 failure-free)\n", report.ExecTime)
}
