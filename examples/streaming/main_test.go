package main

// Example runs the streaming example end to end; go test checks its output,
// so the walkthrough cannot drift from the code it shows.
func Example() {
	main()
	// Output:
	// network: 8192 nodes, 49152 links; source hub: 3402
	// cold start: epoch 0, mode "cold", 23784 activations
	//
	// batch 1: +50 links → epoch 1; served mode "warm", 115 activations; max divergence vs fresh solve 0.0e+00
	// batch 2: +50 links → epoch 2; served mode "warm", 93 activations; max divergence vs fresh solve 0.0e+00
	// batch 3: +50 links → epoch 3; served mode "warm", 47 activations; max divergence vs fresh solve 0.0e+00
	// server drained cleanly
}
