package scaling

// NaivePlan exposes the recursive oracle to the external test package.
var NaivePlan = naivePlan
