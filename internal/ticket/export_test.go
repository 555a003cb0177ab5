package ticket

// Infeasibility and RoundOnce are infeasibility and roundOnce for the
// external tests, which may import the instances (topo imports te, which
// imports this package).
var (
	Infeasibility = infeasibility
	RoundOnce     = roundOnce
)
