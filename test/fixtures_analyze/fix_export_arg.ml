let f x = x + 1
let g = 4
