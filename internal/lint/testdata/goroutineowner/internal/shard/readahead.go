// Positive fixture for goroutine-guard's ownership rule: shard reads
// are synchronous, so a read-ahead goroutine in the shard package is a
// finding, however well it is guarded.
package shard

func readAhead(blocks chan<- []byte, read func() []byte) {
	go func() { // want goroutine-guard "outside the packages that own goroutines"
		defer close(blocks)
		blocks <- read()
	}()
}
