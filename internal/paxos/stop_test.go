package paxos

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestStopJoinsLoopUnderLoad stops WAL-backed nodes while proposals are
// committing and closes each node's WAL the moment Stop returns, the
// order a replica's shutdown uses. A Stop that returned before the event
// loop finished would let an in-flight commit append to the closed WAL and
// panic with "paxos: wal append: wal: closed".
func TestStopJoinsLoopUnderLoad(t *testing.T) {
	for iter := 0; iter < 30; iter++ {
		hub := NewChanHub(0, 0, 0, int64(iter+1))
		peers := []int{0, 1, 2}
		nodes := make([]*Node, len(peers))
		stores := make([]*walLog, len(peers))
		for i := range peers {
			st, err := openWal(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			stores[i] = st
			nd, err := NewNode(Config{
				ID: i, Peers: peers, Transport: hub.Endpoint(i), Store: st,
				HeartbeatInterval: 5 * time.Millisecond,
				ElectionTimeout:   25 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = nd
		}
		for _, nd := range nodes {
			nd.Start()
		}
		var p *Node
		waitFor(t, "a primary", func() bool {
			for _, nd := range nodes {
				if nd.IsPrimary() {
					p = nd
					return true
				}
			}
			return false
		})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := 0; ; k++ {
					if p.Propose([]byte(fmt.Sprintf("w%d-%d", w, k))) != nil {
						return
					}
				}
			}(w)
		}
		waitFor(t, "commits under load", func() bool { return p.CommitIndex() > 50 })
		// Stop the backups first, then the primary, each immediately
		// followed by closing its WAL.
		for i := len(nodes) - 1; i >= 0; i-- {
			nodes[(p.cfg.ID+1+i)%len(nodes)].Stop()
			stores[(p.cfg.ID+1+i)%len(nodes)].Close()
		}
		wg.Wait()
		hub.Close()
	}
}

// TestStopFromLoopCallback: a Stop issued by a delivery callback (on the
// event-loop goroutine) returns instead of waiting for its own loop, and a
// later Stop from outside still joins the loop.
func TestStopFromLoopCallback(t *testing.T) {
	hub := NewChanHub(0, 0, 0, 1)
	var nd *Node
	stopped := make(chan struct{})
	var once sync.Once
	nd, err := NewNode(Config{
		ID: 0, Peers: []int{0}, Transport: hub.Endpoint(0),
		HeartbeatInterval: 5 * time.Millisecond,
		OnDeliver: func(LogEntry) {
			once.Do(func() {
				nd.Stop()
				close(stopped)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	nd.Start()
	waitFor(t, "a primary", nd.IsPrimary)
	if err := nd.Propose([]byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop from the delivery callback deadlocked")
	}
	joined := make(chan struct{})
	go func() {
		nd.Stop()
		close(joined)
	}()
	select {
	case <-joined:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop after a callback Stop never joined the loop")
	}
}
