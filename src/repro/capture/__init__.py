"""Capture substrate: synthetic RGB-D camera array and dataset.

The paper captures with 10 Kinect v2 cameras (Panoptic dataset) /
Azure Kinect DK arrays.  We have no cameras, so this package builds the
closest synthetic equivalent: procedural animated 3D scenes rendered to
pixel-aligned RGB-D images through the same pinhole projection a Kinect
applies.  Downstream code (tiling, encoding, culling, reconstruction)
sees exactly the data layout real hardware would produce.
"""
