module erms/bench

go 1.22

require erms v0.0.0

replace erms => ../
