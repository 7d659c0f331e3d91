let h = 5
