"""Stream composition: tiling N camera images into one video frame.

Paper section 3.2 ("LiVo's approach: Tiling"): rather than running 2N
parallel encoders or interleaving cameras on one stream (which defeats
inter-frame prediction), LiVo tiles the N depth images into one 4K
frame and the N downsampled color images into another.  Tiles sit at
fixed positions, so macroblock locality -- and therefore inter-frame
prediction -- is preserved.

A sequence marker (the paper embeds a QR code; we embed a robust binary
block pattern) is written into a reserved strip of each tiled frame so
the receiver can re-associate color and depth frames that traveled on
different streams (appendix A.1).
"""
