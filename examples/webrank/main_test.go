package main

// Example runs the webrank example end to end; go test checks its output,
// so the walkthrough cannot drift from the code it shows.
func Example() {
	main()
	// Output:
	// WG-class web graph: 4096 pages, 24576 links
	// top pages by rank:
	//   page 1724     rank 62.3930 (in-degree would earn it this)
	//   page 3800     rank 22.4588 (in-degree would earn it this)
	//   page 2510     rank 21.1555 (in-degree would earn it this)
	//   page 360      rank 20.9481 (in-degree would earn it this)
	//   page 2418     rank 20.8755 (in-degree would earn it this)
	//   page 1927     rank 20.7674 (in-degree would earn it this)
	//   page 2352     rank 19.9226 (in-degree would earn it this)
	//   page 50       rank 19.6867 (in-degree would earn it this)
	//   page 2275     rank 19.6657 (in-degree would earn it this)
	//   page 3317     rank 18.8702 (in-degree would earn it this)
	//
	// event flow over 39 scheduler rounds:
	//   round      produced    remaining  lookahead>0
	//   0             28672         1957         1342
	//   5             23922         1956         2329
	//   10            23927         1949         2334
	//   15            23923         1957         2329
	//   20            23927         1963         2333
	//   25            23877         1974         2325
	//   30            22629         1961         2301
	//   35            14930         1880         2105
	//   38                0            0         1187
	//
	// coalescing eliminated 763084 of 852960 event arrivals; 57.3% of off-chip bytes were useful
}
