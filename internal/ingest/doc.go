// Package ingest is the network-facing front end of the serve runtime:
// it turns real I/O — UDP datagrams, length-framed TCP streams, libpcap
// capture files — and a statistically realistic synthetic generator into
// the packet stream a served pipeline consumes.
//
// The contract is the Source interface: a pull-batch, context-cancelable
// packet supplier. Pull blocks until at least one packet is available and
// then fills as many of the caller's slots as it can without blocking
// again, which is what lets one syscall-bound read feed a whole ring
// batch. Ownership transfers at Pull: the bytes of every slice a Source
// hands out are the caller's alone and the source never touches them
// again, so the runtime can thread packet bytes through its token
// free-list (the bytes ride in the iteration context until the token
// retires) without a defensive copy. What is owned is the bytes, not the
// allocation: the socket sources receive into chunks and hand packets out
// as sub-slices with capacity cut to length, so packets of one TCP
// connection (or one UDP socket) share a chunk, an append reallocates, and
// a packet the caller retains pins at most one chunk (128 KiB TCP, 64 KiB
// UDP) — copy out what must outlive its neighbours.
//
// Backpressure composes end to end. The runtime's head makes one Pull per
// batch and closes the batch with whatever was ready, so a quiet socket
// strands no packet; when the first inter-stage ring is full, the head stops
// pulling, and a socket source simply stops draining its socket — the kernel receive buffer becomes the final
// buffer, and beyond it the kernel drops (counted on Linux for UDP, see
// UDPSource). The Stats counters every source carries (rx packets/bytes,
// drops, decode errors) surface through the runtime's metrics registry and
// Pipeline.Snapshot so an operator can see that boundary.
//
// Decode stays out here, in front of the partitioned region: sources
// validate framing (a minimum POS frame, a sane pcap record) and count
// rejects as decode errors, but the packet bytes enter the pipeline
// unparsed. The partitioner's correctness story depends on the stage
// programs seeing exactly the bytes the sequential oracle saw — any
// decoding the front end did would become hidden per-packet state the
// cut-cost model knows nothing about.
//
// Open maps operator-facing URL specs onto sources:
//
//	udp://:9000                         UDP listener, one datagram = one packet
//	tcp://:9001                         TCP listener, 2-byte big-endian length framing
//	pcap://testdata/flows.pcap?pace=1   capture replay (pace: 0 unpaced, 1 recorded, N ×faster)
//	gen://ipv4?seed=1&packets=50000     seeded generator, Pareto flows + on/off bursts
//
// Malformed specs fail with errs.ErrBadSource, which the repro package
// re-exports.
package ingest
