package main

// Example runs the community example end to end; go test checks its output,
// so the walkthrough cannot drift from the code it shows.
func Example() {
	main()
	// Output:
	// FB-class social graph: 4096 users, 65536 follows
	// communities: 1019 components; giant component holds 75.0% of users
	// adsorption: most influential user 3297 with score 0.9860 (converged in 25 rounds)
	//
	// GraphPulse vs Graphicionado-style BSP on this workload:
	//   simulated time:   0.428 ms vs 0.666 ms (1.6x)
	//   off-chip traffic: 311315 vs 321021 line transfers (1.03x)
	//   edge work:        1493345 events vs 2143582 BSP edge traversals
}
