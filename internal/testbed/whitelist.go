package testbed

import (
	"fmt"
	"sort"
)

// Whitelist is the capacity-loaning interface of §6: each scheduler (Lyra's
// and the inference cluster's) maintains a whitelist of the servers under
// its control. The orchestrator adds on-loan servers to Lyra's whitelist
// when loaning, and removes them after the scheduler confirms they no
// longer host running workers when reclaiming.
type Whitelist struct {
	name    string
	servers map[int]bool
}

// NewWhitelist returns an empty whitelist for the named scheduler.
func NewWhitelist(name string) *Whitelist {
	return &Whitelist{name: name, servers: make(map[int]bool)}
}

// Add puts a server under this scheduler's control.
func (w *Whitelist) Add(id int) {
	w.servers[id] = true
}

// Remove withdraws a server. It fails if the server is not listed.
func (w *Whitelist) Remove(id int) error {
	if !w.servers[id] {
		return fmt.Errorf("testbed: server %d not on %s whitelist", id, w.name)
	}
	delete(w.servers, id)
	return nil
}

// Has reports whether the server is under this scheduler's control.
func (w *Whitelist) Has(id int) bool {
	return w.servers[id]
}

// List returns the whitelisted server IDs in ascending order.
func (w *Whitelist) List() []int {
	out := make([]int, 0, len(w.servers))
	for id := range w.servers {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Len returns the number of whitelisted servers.
func (w *Whitelist) Len() int {
	return len(w.servers)
}

// TransferServer executes one loaning or reclaiming handover: remove the
// server from one whitelist and add it to the other, never letting it
// appear on both.
func TransferServer(id int, from, to *Whitelist) error {
	if err := from.Remove(id); err != nil {
		return err
	}
	to.Add(id)
	return nil
}
