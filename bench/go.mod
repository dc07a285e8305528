module helmsim/bench

go 1.24

require helmsim v0.0.0

replace helmsim => ../
