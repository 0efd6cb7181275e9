package model

// FilledCells returns how many failure cells c's rows hold: the test seam
// the external laziness test reads.
func FilledCells(c *Compiled) int { return filledCells(c) }

// SetFillGrowth sets the row fill growth factor and returns the previous
// one; a growth of 1 makes every fill exact.
func SetFillGrowth(g int) int {
	old := fillGrowth
	fillGrowth = g
	return old
}
