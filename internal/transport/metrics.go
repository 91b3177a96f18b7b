package transport

import "ginflow/internal/obs"

// Wire-layer instrumentation, registered on the process-wide default
// registry: a transport endpoint (server or worker) may live in a
// process with no Manager, so the package does not thread a registry
// through — every instrument is a resolved pointer and each update is
// one atomic operation on an already-encoded frame path.
var (
	metFramesSent = obs.Default().Counter("ginflow_transport_frames_sent_total",
		"Frames written to transport sockets (both directions' writers).")
	metSocketWrites = obs.Default().Counter("ginflow_transport_socket_writes_total",
		"Socket writes by transport endpoints; one write carries every frame queued on its link since the last.")
	metFramesReceived = obs.Default().Counter("ginflow_transport_frames_received_total",
		"Frames read from transport sockets.")
	metOversized = obs.Default().Counter("ginflow_transport_oversized_messages_total",
		"Messages a server could not forward to a remote subscriber: encoded alone, each exceeds the frame cap.")
	metReconnects = obs.Default().Counter("ginflow_transport_reconnects_total",
		"Successful client re-handshakes after a broken connection.")
	metRetryDials = obs.Default().Counter("ginflow_retry_attempts_total",
		"Retries after transient faults, per boundary.", obs.L("boundary", "dial"))
	// metUnacked is the ACK lag: reliable frames sitting in link
	// outboxes awaiting the peer's cumulative acknowledgement, summed
	// over every live link in the process.
	metUnacked = obs.Default().Gauge("ginflow_transport_unacked_frames",
		"Reliable frames in outboxes awaiting cumulative ACK (ACK lag).")
)
