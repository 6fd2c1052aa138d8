// Package sonuma models the Scale-Out NUMA messaging substrate that RPCValet
// extends (§4): the paper's lightweight native-messaging extension —
// messaging domains and the send/receive buffer provisioning that lets
// multi-packet messages be reassembled without NI-side reassembly state.
// The send side keeps a valid bit per slot; the receive side keeps packet
// counter state for occupied slots only.
//
// The package is a set of protocol state machines with no notion of time;
// the NI and machine models (internal/ni, internal/machine) drive it from
// the discrete-event simulator and attach latencies to each transition.
package sonuma

// NodeID identifies a node in the cluster (0-based).
type NodeID int
