// Package interconnect models the networks of the two evaluated machines:
// the 2D mesh connecting the 16 nodes of the CC-NUMA, and the crossbar
// connecting the 8 processors of the CMP to the on-chip directory/L3 banks.
//
// The paper specifies minimum round-trip latencies (Section 4.1) rather
// than a full network model; we expose topology distance for statistics and
// model contention with busy-until occupancy on each node's network
// interface and on the shared banks. This is the level of detail at which
// "contention is accurately modeled in the whole system" influences the
// buffering results: bursts (e.g. eager commit write-backs) queue behind
// each other.
package interconnect

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/obs"
)

// Topology exposes the node-to-node distance of a network.
type Topology interface {
	// Hops returns the network distance between two nodes.
	Hops(a, b ids.ProcID) int
	// Name identifies the topology in reports.
	Name() string
	// Nodes returns the number of endpoints.
	Nodes() int
}

// Mesh2D is the bidirectional 2D mesh of the CC-NUMA machine. Nodes are
// numbered row-major.
type Mesh2D struct {
	Cols, Rows int
}

// NewMesh2D returns a cols×rows mesh.
func NewMesh2D(cols, rows int) Mesh2D {
	if cols <= 0 || rows <= 0 {
		panic("interconnect: mesh with non-positive dimension")
	}
	return Mesh2D{Cols: cols, Rows: rows}
}

// Hops returns the Manhattan distance between nodes a and b.
func (m Mesh2D) Hops(a, b ids.ProcID) int {
	ax, ay := int(a)%m.Cols, int(a)/m.Cols
	bx, by := int(b)%m.Cols, int(b)/m.Cols
	return abs(ax-bx) + abs(ay-by)
}

// Name implements Topology.
func (m Mesh2D) Name() string { return fmt.Sprintf("%dx%d mesh", m.Cols, m.Rows) }

// Nodes implements Topology.
func (m Mesh2D) Nodes() int { return m.Cols * m.Rows }

// Crossbar is the single-hop network of the CMP: every processor reaches
// every bank in one hop.
type Crossbar struct {
	N int
}

// NewCrossbar returns an n-endpoint crossbar.
func NewCrossbar(n int) Crossbar {
	if n <= 0 {
		panic("interconnect: crossbar with non-positive size")
	}
	return Crossbar{N: n}
}

// Hops implements Topology: 0 for self, 1 otherwise.
func (c Crossbar) Hops(a, b ids.ProcID) int {
	if a == b {
		return 0
	}
	return 1
}

// Name implements Topology.
func (c Crossbar) Name() string { return fmt.Sprintf("%d-port crossbar", c.N) }

// Nodes implements Topology.
func (c Crossbar) Nodes() int { return c.N }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Network combines a topology with per-node interface occupancy and shared
// memory/directory bank occupancy. All times are in cycles.
type Network struct {
	topo  Topology
	ifs   []event.Resource // one network interface per node
	banks *event.Banks     // memory/directory banks, interleaved by line

	// msgOccupancy is how long one message occupies a network interface.
	msgOccupancy event.Time
	// bankOccupancy is how long one line transfer occupies a bank.
	bankOccupancy event.Time

	// obsMessages counts transfers for the observability layer (nil =
	// disabled, free).
	obsMessages *obs.Counter
}

// SetObs installs an observability counter incremented per Transfer. A nil
// counter (the default) is a free no-op.
func (n *Network) SetObs(messages *obs.Counter) { n.obsMessages = messages }

// InFlight returns how many network interfaces and banks are occupied at
// time now — the in-flight-messages gauge. A pure observability read.
func (n *Network) InFlight(now event.Time) int {
	busy := n.banks.BusyAt(now)
	for i := range n.ifs {
		if n.ifs[i].BusyUntil() > now {
			busy++
		}
	}
	return busy
}

// NewNetwork builds a network over topo with the given bank count and
// occupancies.
func NewNetwork(topo Topology, banks int, msgOccupancy, bankOccupancy event.Time) *Network {
	return &Network{
		topo:          topo,
		ifs:           make([]event.Resource, topo.Nodes()),
		banks:         event.NewBanks(banks),
		msgOccupancy:  msgOccupancy,
		bankOccupancy: bankOccupancy,
	}
}

// Topology returns the underlying topology.
func (n *Network) Topology() Topology { return n.topo }

// Home returns the home bank/node index for a line key.
func (n *Network) Home(key uint64) ids.ProcID {
	return ids.ProcID(key % uint64(n.topo.Nodes()))
}

// Transfer accounts for one round-trip transaction issued by node from at
// time now with intrinsic latency lat: the requester's interface and the
// target bank are occupied, and the completion time (including any queuing
// delay) is returned. Local L1/L2 hits must not call Transfer — they don't
// touch the network.
func (n *Network) Transfer(from ids.ProcID, bankKey uint64, now, lat event.Time) (done event.Time) {
	n.obsMessages.Inc()
	start := now
	if int(from) >= 0 && int(from) < len(n.ifs) {
		start, _ = n.ifs[from].Acquire(now, n.msgOccupancy)
	}
	bankStart, _ := n.banks.Acquire(bankKey, start, n.bankOccupancy)
	return bankStart + lat
}

// QueueDelay returns the cumulative queuing delay observed at the banks;
// interface delay is reported separately by IfDelay.
func (n *Network) QueueDelay() event.Time { return n.banks.TotalWait() }

// IfDelay returns the cumulative queuing delay at node interfaces.
func (n *Network) IfDelay() event.Time {
	var w event.Time
	for i := range n.ifs {
		w += n.ifs[i].WaitCycles()
	}
	return w
}

// NetworkState is the serializable occupancy state of a Network. Topology
// and occupancy parameters are machine configuration, rebuilt on restore;
// only the busy-until bookkeeping and its statistics are checkpointed.
type NetworkState struct {
	Ifs   []event.ResourceState
	Banks []event.ResourceState
}

// State captures the network occupancy for a checkpoint.
func (n *Network) State() NetworkState {
	s := NetworkState{Ifs: make([]event.ResourceState, len(n.ifs))}
	for i := range n.ifs {
		s.Ifs[i] = n.ifs[i].State()
	}
	s.Banks = n.banks.State()
	return s
}

// RestoreState reinstates checkpointed occupancy; the interface and bank
// counts must match the machine geometry the network was built with.
func (n *Network) RestoreState(s NetworkState) error {
	if len(s.Ifs) != len(n.ifs) {
		return fmt.Errorf("interconnect: restoring %d interface states into %d interfaces",
			len(s.Ifs), len(n.ifs))
	}
	for i := range s.Ifs {
		n.ifs[i].RestoreState(s.Ifs[i])
	}
	return n.banks.RestoreState(s.Banks)
}
