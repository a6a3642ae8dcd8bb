// live_overlay runs the paper's testbed experiments (§2.3, Figs 4-6)
// with real TCP nodes on localhost:
//
//  1. The A -> B -> C pipeline: agent A floods peer B beyond its
//     processing capacity; observer C counts what B still forwards —
//     the saturation and drop-rate behaviour of Figures 5 and 6.
//  2. A DD-POLICE-protected star: the hub detects the flooding agent
//     via buddy-group Neighbor_Traffic reports and disconnects it with
//     a Bye(451).
package main

import (
	"fmt"
	"log"
	"time"

	"ddpolice/internal/gnet"
	"ddpolice/internal/police"
)

func main() {
	pipeline()
	defended()
}

// pipeline reproduces the Fig 5/6 measurement at 1/10 the paper's rate
// so it finishes in seconds: B's capacity is 1,500 q/min and A offers
// ~2,900 q/min for 5 s. B's queries draw on 95% of its capacity (the
// rest is the control reserve) from a bucket that starts with one second
// of it, so B drops ~42% of the 242 queries (~51% once that first second
// is spent) — the paper's testbed saw 47% at 15k capacity / 29k offered.
func pipeline() {
	fmt.Println("== testbed pipeline A -> B -> C (Figs 5-6, scaled 1/10) ==")
	mk := func(name string, id int32, capacity float64) *gnet.Node {
		cfg := gnet.DefaultConfig(name)
		cfg.NodeID = id
		cfg.CapacityPerMin = capacity
		cfg.Seed = uint64(id)
		n, err := gnet.NewNode(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return n
	}
	a := mk("A", 1, 1e9)
	b := mk("B", 2, 1500)
	c := mk("C", 3, 1e9)
	defer a.Close()
	defer b.Close()
	defer c.Close()
	if err := a.Connect(b.Addr()); err != nil {
		log.Fatal(err)
	}
	if err := b.Connect(c.Addr()); err != nil {
		log.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)

	offeredPerMin := 2900.0
	interval := time.Duration(float64(time.Minute) / offeredPerMin)
	deadline := time.Now().Add(5 * time.Second)
	ticker := time.NewTicker(interval)
	offered := 0
	for time.Now().Before(deadline) {
		<-ticker.C
		a.SendRawQuery(fmt.Sprintf("bogus-%d", offered))
		offered++
	}
	ticker.Stop()
	time.Sleep(300 * time.Millisecond)

	st := b.Stats()
	total := st.QueriesProcessed + st.QueriesDropped
	fmt.Printf("A offered %d queries; B processed %d, dropped %d (%.0f%%); C received %d\n",
		offered, st.QueriesProcessed, st.QueriesDropped,
		float64(st.QueriesDropped)/float64(total)*100,
		c.Stats().QueriesReceived)
}

// defended runs a DD-POLICE star: three good peers and one agent
// around a hub, with shortened monitoring windows so the detection
// plays out in seconds.
func defended() {
	fmt.Println("\n== DD-POLICE live detection ==")
	pcfg := police.DefaultConfig()
	pcfg.Q0 = 10 // scaled-down good-peer issuing bound
	pcfg.WarnThreshold = 50
	mk := func(name string, id int32) *gnet.Node {
		cfg := gnet.DefaultConfig(name)
		cfg.NodeID = id
		cfg.Seed = uint64(id)
		cfg.Police = &pcfg
		cfg.MinuteLength = 500 * time.Millisecond
		n, err := gnet.NewNode(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return n
	}
	hub := mk("hub", 1)
	good1 := mk("good1", 2)
	good2 := mk("good2", 3)
	agent := mk("agent", 66)
	defer hub.Close()
	defer good1.Close()
	defer good2.Close()
	defer agent.Close()
	for _, n := range []*gnet.Node{good1, good2, agent} {
		if err := n.Connect(hub.Addr()); err != nil {
			log.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond)

	stop := make(chan struct{})
	go func() {
		ticker := time.NewTicker(2 * time.Millisecond) // ~500 bogus q/s
		defer ticker.Stop()
		i := 0
		for {
			select {
			case <-ticker.C:
				agent.SendRawQuery(fmt.Sprintf("attack-%d", i))
				i++
			case <-stop:
				return
			}
		}
	}()

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if ds := hub.Stats().Disconnects; len(ds) > 0 {
			close(stop)
			fmt.Printf("hub disconnected the agent: %s\n", ds[0].Reason)
			fmt.Printf("remaining hub neighbors: %v (good peers kept)\n", hub.Neighbors())
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	close(stop)
	fmt.Println("no detection within deadline (unexpected)")
}
