package hoalg

// RandomTrace lets the external golden test draw the same seeded trace
// shape the differential suite uses.
var RandomTrace = randomTrace
