// Package main is the dddead fixture: a whole program of one package.
package main

import "fmt"

type thing struct{ n int }

// String is reached only through fmt's Stringer.
func (t thing) String() string { return fmt.Sprint(t.n) }

func (t thing) twice() int { return 2 * t.n } // want "thing.twice is reached from no root"

func uncalled() int { return thing{}.twice() } // want "uncalled is reached from no root"

func never[T any](xs []T) []T { return xs } // want "never is reached from no root"

func first[T any](xs []T) T { return xs[0] }

var table = map[string]func() int{"one": one}

func one() int { return 1 }

func setup() {}

func init() { setup() }

type counter struct{ n int }

func (c *counter) inc() { c.n++ }

//ddlint:allow dead -- a fixture other packages' tests would use
func allowed() {}

//ddlint:allow dead -- this function is called // want "stale //ddlint:allow dead"
func called() {}

func main() {
	inc := (&counter{}).inc
	inc()
	called()
	fmt.Println(thing{1}, len(table), first([]int{1}))
}
