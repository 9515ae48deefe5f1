package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/policystore"
)

// PartialRolloutError reports a policy push that did not converge:
// some nodes installed the new version, the listed ones kept their
// previous policy (install failure or transport failure). The next
// SyncPolicy pass retries exactly the divergent nodes.
type PartialRolloutError struct {
	// Version is the checkpoint being rolled out.
	Version int
	// Failed maps node ID to why its install did not land.
	Failed map[string]string
}

// Error implements error.
func (e *PartialRolloutError) Error() string {
	ids := make([]string, 0, len(e.Failed))
	for id := range e.Failed {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%s: %s", id, e.Failed[id])
	}
	return fmt.Sprintf("cluster: rollout of v%d failed on %d node(s): %s",
		e.Version, len(ids), strings.Join(parts, "; "))
}

// SyncPolicy pushes the store's CURRENT version to every routable node
// not already serving it (centralized rollout mode). Nodes that
// succeed flip to the new version immediately; a node whose install
// fails keeps its previous policy (its serving slot is untouched) and
// is reported in the returned *PartialRolloutError — and retried on
// the next sync, since its heartbeat keeps advertising the old
// version. No CURRENT version (a store before the first Promote) is a
// no-op.
func (c *Coordinator) SyncPolicy(store *policystore.Store) error {
	active, err := store.Active()
	if err != nil {
		return err
	}
	if active == 0 {
		return nil
	}
	c.mu.Lock()
	var todo []*member
	for _, m := range c.members {
		if m.healthy && !m.draining && m.policyVersion != active {
			todo = append(todo, m)
		}
	}
	c.mu.Unlock()
	if len(todo) == 0 {
		return nil
	}
	ck, err := store.Get(active)
	if err != nil {
		return err
	}
	req := &InstallRequest{Version: active, Params: ck.Params}
	failed := make(map[string]string)
	for _, m := range todo {
		reply, err := m.client.Install(req)
		if err != nil {
			failed[m.id] = err.Error() // transport: the heartbeat will mark it down
			continue
		}
		if reply.Err != "" {
			failed[m.id] = reply.Err
			continue
		}
		c.mu.Lock()
		m.policyVersion = active
		c.mu.Unlock()
	}
	if len(failed) > 0 {
		return &PartialRolloutError{Version: active, Failed: failed}
	}
	return nil
}

// WatchPolicy runs SyncPolicy every interval until the returned stop
// function is called or the coordinator closes — central rollout's
// main loop. onErr (may be nil) receives each sync error, including
// *PartialRolloutError for incomplete pushes. Without a watcher each
// node keeps whatever policy it learns or loads locally.
func (c *Coordinator) WatchPolicy(store *policystore.Store, interval time.Duration, onErr func(error)) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			if err := c.SyncPolicy(store); err != nil && onErr != nil {
				onErr(err)
			}
			select {
			case <-ticker.C:
			case <-done:
				return
			case <-c.quit:
				return
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
