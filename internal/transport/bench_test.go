package transport

import (
	"context"
	"testing"
	"time"

	"ginflow/internal/cluster"
	"ginflow/internal/hocl"
	"ginflow/internal/mq"
)

// BenchmarkRemoteRoundTrip measures one full transport round trip:
// client publish → frame → server → broker delivery → forwarder →
// frame → client subscription. Guarded by cmd/benchguard so the
// per-message allocation cost of the wire path cannot silently regress.
func BenchmarkRemoteRoundTrip(b *testing.B) {
	clock := cluster.NewClock(time.Microsecond)
	br := mq.NewQueueBrokerSharded(clock, 0.001, 4)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Broker: br})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	defer br.Close()

	rb, err := Dial(srv.Addr(), DialConfig{Name: "bench"}) // pings off
	if err != nil {
		b.Fatal(err)
	}
	defer rb.Close()
	sub, err := rb.Subscribe("sa.rt")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	ping := []hocl.Atom{hocl.Str("ping")}

	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := rb.PublishAtoms("sa.rt", ping); err != nil {
			b.Fatal(err)
		}
		if _, err := sub.Next(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
