module centuryscale/bench

go 1.22

require centuryscale v0.0.0

replace centuryscale => ../
