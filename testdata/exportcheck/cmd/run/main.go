// Command run is the fixture module's program.
package main

import (
	"fmt"

	"example.com/exportcheck"
	"example.com/exportcheck/internal/lib"
)

func main() {
	var k exportcheck.Kind
	b := &lib.Box[int]{}
	read := lib.Meter{}.Read
	fmt.Println(k, exportcheck.Used(), b.Get(), read())
}
