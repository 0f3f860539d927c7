"""Reference implementations that the differential tests compare the library against."""
