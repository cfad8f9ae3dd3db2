// Package dist is the distributed protocol engine: it rebuilds the ΘALG
// topology of internal/topology purely by message passing, under message
// loss, bounded random delay, and node crash/restart — validating the
// paper's locality claim end to end. Where topology.BuildTheta executes
// with god's-eye global state, here every node is an independent actor
// with a bounded FIFO mailbox that computes only from messages it has
// received. The runtime plays exactly the role of the radio medium plus a
// fault injector: it decides which in-range nodes hear a broadcast, and it
// drops, delays, and loses messages.
//
// # Actor model
//
// The engine is a deterministic discrete-event simulator: a single virtual
// clock (integer ticks), a priority queue of events ordered by (time,
// sequence number), and one logical actor per node. Every message delivery
// appends to the target's bounded mailbox (overflow drops the message and
// counts it); a wake event drains the mailbox FIFO. Because the event loop
// is single-threaded and all randomness flows from one seeded source, a
// replay with the same inputs is bit-identical — Stats.Hash folds every
// processed event so tests can assert it.
//
// # Message grammar
//
//	HELLO        broadcast   neighbor discovery within radius D
//	HELLO-REPLY  reliable    unicast position echo to a newly heard node
//	SELECT       reliable    phase-1 sector announcement: "you are (not)
//	                         my nearest node in my sector" — doubles as the
//	                         phase-2 admission request
//	GRANT        reliable    phase-2 admission grant (On) or revocation
//	                         (!On): "the edge (me,you) is (not) admitted"
//	ACK          unicast     per-message acknowledgement; the ACK of a
//	                         GRANT is the edge-confirm ack
//
// Reliable unicasts are versioned state transfers: each (sender, receiver,
// channel) pair carries the sender's latest state under a monotonically
// increasing version, retried with exponential backoff until acknowledged
// or MaxRetries is exhausted. Receivers apply a message only if its version
// exceeds the last applied one, so duplicated and reordered deliveries are
// harmless (last-writer-wins per channel).
//
// # Fault model
//
// Faults configures per-delivery Bernoulli drops, a uniformly random extra
// delay in [0, MaxDelay] ticks on top of the unit link delay, and node
// crash/restart events with total state loss. A restarted node bumps its
// incarnation number and rediscovers the protocol state from scratch;
// peers detect the new incarnation on any message and re-transfer the
// channel state the crashed node lost.
//
// # Convergence
//
// The engine quiesces when its event queue drains: hellos are rebroadcast
// a bounded number of times, transfers stop when acknowledged or
// exhausted, and crash/restart schedules are finite. Certify then issues a
// Certificate: quiescence, transfer completeness, an edge-level diff
// against the centralized topology.BuildTheta on the same inputs (which
// must be empty on fault-free runs), connectivity, and the Lemma 2.1
// degree bound ⌈4π/θ⌉ — the properties later PRs (distributed routing,
// gossip repair) build on.
package dist
