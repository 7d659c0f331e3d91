let unused = 0
let test_only = 1
let via_alias = 2
let via_open = 3
