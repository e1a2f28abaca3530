package caesar_test

import (
	"fmt"
	"log"

	"github.com/caesar-sketch/caesar"
)

// The basic lifecycle: configure, observe packets, query.
func Example() {
	sk, err := caesar.New(caesar.Config{
		Counters:      1 << 14,
		CacheEntries:  1 << 10,
		CacheCapacity: 64,
		Seed:          1,
	})
	if err != nil {
		log.Fatal(err)
	}
	flow := caesar.FiveTuple{
		SrcIP: 0x0a000001, DstIP: 0x0a000002,
		SrcPort: 1234, DstPort: 443, Proto: 6,
	}
	for i := 0; i < 1000; i++ {
		sk.ObservePacket(flow)
	}
	est := sk.Estimator()
	fmt.Printf("estimated size: %.0f\n", est.Estimate(flow.ID(), caesar.CSM))
	// Output: estimated size: 1000
}

// Confidence intervals quantify the sharing noise around an estimate.
func ExampleEstimator_EstimateWithInterval() {
	sk, err := caesar.New(caesar.Config{
		Counters:      1 << 14,
		CacheEntries:  1 << 10,
		CacheCapacity: 64,
		Seed:          1,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		sk.Observe(caesar.FlowID(42))
	}
	est := sk.Estimator()
	size, iv := est.EstimateWithInterval(caesar.FlowID(42), 0.95)
	fmt.Printf("size %.0f, interval contains truth: %v\n", size, iv.Contains(500))
	// Output: size 500, interval contains truth: true
}

// Byte counting (flow volume) uses Add with the packet length.
func ExampleSketch_Add() {
	sk, err := caesar.New(caesar.Config{
		Counters:      1 << 14,
		CacheEntries:  1 << 10,
		CacheCapacity: 1 << 20, // byte-scale capacity
		Seed:          1,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		sk.Add(caesar.FlowID(7), 1500) // one MTU-sized packet
	}
	est := sk.Estimator()
	// A whisker under 150000: the flow's own bytes contribute to the
	// expected-noise subtraction (k·totalBytes/L ≈ 27 here).
	fmt.Printf("volume: %.0f bytes\n", est.Estimate(caesar.FlowID(7), caesar.CSM))
	// Output: volume: 149973 bytes
}

// A sliding window answers queries over the last N sealed epochs while
// producers keep ingesting through their handles.
func ExampleShardedWindow() {
	w, err := caesar.NewShardedWindow(2, 2, caesar.Config{
		Counters:      1 << 13,
		CacheEntries:  1 << 9,
		CacheCapacity: 32,
		Seed:          1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer w.Close()
	h := w.Ingester()
	for epoch := 0; epoch < 3; epoch++ {
		for i := 0; i < 100; i++ {
			h.Observe(caesar.FlowID(5))
		}
		if err := w.Rotate(); err != nil {
			log.Fatal(err)
		}
	}
	// Window holds the last 2 of 3 epochs: ~200 packets.
	fmt.Printf("windowed size: %.0f\n", w.Estimate(caesar.FlowID(5), caesar.CSM))
	// Output: windowed size: 200
}

// Sharded ingestion spreads construction over worker goroutines; each
// producer feeds them through its own handle. A one-epoch window is the
// plain parallel sketch: Close seals the epoch, and queries answer from it.
func ExampleNewShardedWindow() {
	w, err := caesar.NewShardedWindow(1, 4, caesar.Config{
		Counters:      1 << 14,
		CacheEntries:  1 << 10,
		CacheCapacity: 64,
		Seed:          1,
	})
	if err != nil {
		log.Fatal(err)
	}
	h := w.Ingester()
	for i := 0; i < 900; i++ {
		h.Observe(caesar.FlowID(11))
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	// The estimate sits a whisker under 900: the flow's own mass is part of
	// its shard's expected-noise subtraction (k·n/L ≈ 0.66 here).
	fmt.Printf("estimated size: %.0f\n", w.Estimate(caesar.FlowID(11), caesar.CSM))
	// Output: estimated size: 899
}
