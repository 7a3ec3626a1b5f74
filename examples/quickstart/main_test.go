package main

// Example runs the quickstart example end to end; go test checks its output,
// so the walkthrough cannot drift from the code it shows.
func Example() {
	main()
	// Output:
	// graph: 16384 vertices, 196608 edges
	// accelerator: converged in 959501 cycles = 0.960 ms at 1 GHz (28 rounds)
	//              281549 events processed, 94.1% of arrivals coalesced in-queue
	// software:    46 BSP iterations
	// verification: max |accelerator - reference| = 3.03e-02
}
