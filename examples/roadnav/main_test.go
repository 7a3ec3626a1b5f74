package main

// Example runs the roadnav example end to end; go test checks its output,
// so the walkthrough cannot drift from the code it shows.
func Example() {
	main()
	// Output:
	// road grid: 128x128 intersections, 65024 road segments
	// shortest travel cost corner-to-corner: 65.233 (in 587080 cycles, 236 rounds)
	// widest corridor corner-to-corner: bottleneck capacity 0.205
	// 16384/16384 intersections reachable from the depot
	// partitioned run: 4 slices, 5454 inter-slice events spilled, identical results: true
	// slicing overhead: 0.72x cycles vs single-slice
}
