package main

// pinned are the digests of every workload's deterministic output at
// the default seed. A change that deliberately alters virtual-time
// output re-pins them in a benchmark-only change.
var pinned = map[string]string{
	wDrill: "1ee5c438636dcf9cd31914259b22e7bfef21ccb01a038ebd13347b9691f5f5e5",
	wFleet: "a689c0f0bbf63cbe4c279990ba1df43cbd375db83e27d8623abb307d3a10d8fd",
	wWAN:   "9eab2a60a0de70cfd7ecbcfcb204537db169242f5e3427a526808ef26f0130a4",
}
