module bdrmap/bench

go 1.22

require bdrmap v0.0.0

replace bdrmap => ../
